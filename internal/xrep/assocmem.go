package xrep

import (
	"fmt"
	"sort"
)

// This file reproduces the paper's second worked example of abstract-value
// transmission (§3.3): an associative memory type with add_item and
// get_item operations, where "on node A the representation makes use of a
// hash table, while on node B the representation uses a tree. A possible
// external rep might be a sequence of items with associated keys."
//
// Both implementations satisfy AssocMem; encode on the hash node builds the
// key/item sequence from the hash table, and decode on the tree node
// constructs a tree representation from that sequence.

// AssocMemTypeName is the system-wide name of the associative-memory type.
const AssocMemTypeName = "assoc_mem"

// AssocMem is the abstract associative-memory type: lookup of items on the
// basis of a key.
type AssocMem interface {
	Transmittable
	// AddItem adds a key/item pair, replacing any existing item for key.
	AddItem(key string, item Value)
	// GetItem retrieves the item associated with a key.
	GetItem(key string) (Value, bool)
	// Len reports the number of pairs held.
	Len() int
	// Keys returns all keys in ascending order.
	Keys() []string
}

// HashAssocMem is the hash-table internal representation (node A in the
// paper's example). Go's map is the hash table.
type HashAssocMem struct {
	m map[string]Value
}

// NewHashAssocMem returns an empty hash-table associative memory.
func NewHashAssocMem() *HashAssocMem {
	return &HashAssocMem{m: make(map[string]Value)}
}

// AddItem implements AssocMem.
func (h *HashAssocMem) AddItem(key string, item Value) { h.m[key] = item }

// GetItem implements AssocMem.
func (h *HashAssocMem) GetItem(key string) (Value, bool) {
	v, ok := h.m[key]
	return v, ok
}

// Len implements AssocMem.
func (h *HashAssocMem) Len() int { return len(h.m) }

// Keys implements AssocMem.
func (h *HashAssocMem) Keys() []string {
	ks := make([]string, 0, len(h.m))
	for k := range h.m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// XTypeName implements Transmittable.
func (h *HashAssocMem) XTypeName() string { return AssocMemTypeName }

// EncodeX implements Transmittable: it builds the external rep — a
// sequence of key/item pairs — from the hash-table representation. Pairs
// are emitted in key order so the external rep is canonical.
func (h *HashAssocMem) EncodeX() (Value, error) {
	out := make(Seq, 0, len(h.m))
	for _, k := range h.Keys() {
		out = append(out, Seq{Str(k), h.m[k]})
	}
	return out, nil
}

// treeNode is a node of the unbalanced binary search tree used by the tree
// representation. (An AVL or red-black tree would serve equally; the point
// of the example is representation diversity, not balance.)
type treeNode struct {
	key         string
	item        Value
	left, right *treeNode
}

// TreeAssocMem is the binary-search-tree internal representation (node B in
// the paper's example) of the same abstract type.
type TreeAssocMem struct {
	root *treeNode
	n    int
}

// NewTreeAssocMem returns an empty tree associative memory.
func NewTreeAssocMem() *TreeAssocMem { return &TreeAssocMem{} }

// AddItem implements AssocMem.
func (t *TreeAssocMem) AddItem(key string, item Value) {
	node := &t.root
	for *node != nil {
		switch {
		case key < (*node).key:
			node = &(*node).left
		case key > (*node).key:
			node = &(*node).right
		default:
			(*node).item = item
			return
		}
	}
	*node = &treeNode{key: key, item: item}
	t.n++
}

// GetItem implements AssocMem.
func (t *TreeAssocMem) GetItem(key string) (Value, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.item, true
		}
	}
	return nil, false
}

// Len implements AssocMem.
func (t *TreeAssocMem) Len() int { return t.n }

// Keys implements AssocMem.
func (t *TreeAssocMem) Keys() []string {
	ks := make([]string, 0, t.n)
	var walk func(*treeNode)
	walk = func(n *treeNode) {
		if n == nil {
			return
		}
		walk(n.left)
		ks = append(ks, n.key)
		walk(n.right)
	}
	walk(t.root)
	return ks
}

// XTypeName implements Transmittable.
func (t *TreeAssocMem) XTypeName() string { return AssocMemTypeName }

// EncodeX implements Transmittable: an in-order walk yields the canonical
// key-ordered external rep.
func (t *TreeAssocMem) EncodeX() (Value, error) {
	out := make(Seq, 0, t.n)
	var walk func(*treeNode) error
	walk = func(n *treeNode) error {
		if n == nil {
			return nil
		}
		if err := walk(n.left); err != nil {
			return err
		}
		out = append(out, Seq{Str(n.key), n.item})
		return walk(n.right)
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// assocPairs extracts the key/item pairs from an associative-memory
// external rep.
func assocPairs(v Value) ([]struct {
	key  string
	item Value
}, error) {
	pairs := ReadRec(v, AssocMemTypeName, 0)
	var out []struct {
		key  string
		item Value
	}
	for i := 0; pairs.More(); i++ {
		f := ReadSeq(pairs.Value(), 2)
		out = append(out, struct {
			key  string
			item Value
		}{f.Str(), f.Value()})
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("assoc_mem: pair %d: %w", i, err)
		}
	}
	if err := pairs.Err(); err != nil {
		return nil, fmt.Errorf("assoc_mem: %w", err)
	}
	return out, nil
}

// DecodeHashAssocMem is the decode operation for nodes using the hash
// representation.
func DecodeHashAssocMem(v Value) (any, error) {
	pairs, err := assocPairs(v)
	if err != nil {
		return nil, err
	}
	h := NewHashAssocMem()
	for _, p := range pairs {
		h.AddItem(p.key, p.item)
	}
	return h, nil
}

// DecodeTreeAssocMem is the decode operation for nodes using the tree
// representation: it "construct[s] a tree representation from such a
// sequence." Insertion from the key-ordered external rep would produce a
// degenerate chain, so the decoder builds a balanced tree from the sorted
// pairs directly.
func DecodeTreeAssocMem(v Value) (any, error) {
	pairs, err := assocPairs(v)
	if err != nil {
		return nil, err
	}
	t := NewTreeAssocMem()
	var build func(lo, hi int) *treeNode
	build = func(lo, hi int) *treeNode {
		if lo >= hi {
			return nil
		}
		mid := (lo + hi) / 2
		return &treeNode{
			key:   pairs[mid].key,
			item:  pairs[mid].item,
			left:  build(lo, mid),
			right: build(mid+1, hi),
		}
	}
	t.root = build(0, len(pairs))
	t.n = len(pairs)
	return t, nil
}
