package xrep

import (
	"reflect"
	"testing"
)

func TestRegistryRangeOrderAndEarlyStop(t *testing.T) {
	r := NewRegistry()
	mk := func(tag string) DecodeFunc {
		return func(Value) (any, error) { return tag, nil }
	}
	r.Register("c", mk("c"))
	r.Register("a", mk("a"))
	r.Register("b", mk("b"))

	var names []string
	r.Range(func(name string, dec DecodeFunc) bool {
		got, err := dec(Null{})
		if err != nil || got != name {
			t.Fatalf("decoder for %q returned %v, %v", name, got, err)
		}
		names = append(names, name)
		return true
	})
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Range order = %v, want %v", names, want)
	}

	names = names[:0]
	r.Range(func(name string, _ DecodeFunc) bool {
		names = append(names, name)
		return len(names) < 2
	})
	if want := []string{"a", "b"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("early-stop Range visited %v, want %v", names, want)
	}
}

func TestRegistryRangeReentrant(t *testing.T) {
	r := NewRegistry()
	r.Register("seed", func(Value) (any, error) { return nil, nil })
	r.Range(func(name string, _ DecodeFunc) bool {
		// Iteration works over a snapshot: mutating mid-range must not
		// deadlock or affect this walk.
		r.Register("late-"+name, func(Value) (any, error) { return nil, nil })
		return true
	})
	if !r.Has("late-seed") {
		t.Fatal("re-entrant Register during Range was lost")
	}
	var n int
	r.Range(func(string, DecodeFunc) bool { n++; return true })
	if n != 2 {
		t.Fatalf("registry holds %d types, want 2", n)
	}
}
