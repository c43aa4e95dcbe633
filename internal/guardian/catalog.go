package guardian

import (
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// The durable catalog. A node's in-memory meta map is enough to re-create
// recoverable guardians across a simulated Crash/Restart, because the
// process — and with it the map — survives. A node on persistent storage
// must also survive death of the OS process itself, so the same catalog
// records are additionally written to a well-known log in the node's
// store: one record per creation, a tombstone per self-destruct. Node
// startup replays this log and re-instantiates every surviving guardian
// whose definition provides a Recover process, exactly as Restart does
// from memory.

// catalogLogName is the reserved log holding the node's catalog. The
// leading underscore keeps it clear of guardian logs, which are always
// named "<type>-<id>".
const catalogLogName = "_catalog"

// Catalog record names.
const (
	catalogCreateRec  = "catalog/create"
	catalogDestroyRec = "catalog/destroy"
)

// catalogLog opens the node's catalog log. Failure is fail-stop: a node
// that cannot read its own catalog must not run, or guardians it promised
// to recover would silently vanish.
func (n *Node) catalogLog() durable.Log {
	l, err := n.store.OpenLog(catalogLogName)
	if err != nil {
		panic(fmt.Errorf("guardian: opening catalog of node %s: %w", n.name, err))
	}
	return l
}

// catalogCreate persists one guardian's catalog record, forcing it to
// disk before returning — creation must be durable before the guardian's
// first process runs.
func (n *Node) catalogCreate(m *guardianMeta) {
	ports := make(xrep.Seq, len(m.portIDs))
	for i, pid := range m.portIDs {
		ports[i] = xrep.Int(pid)
	}
	args := m.args
	if args == nil {
		args = xrep.Seq{}
	}
	fields := xrep.Seq{xrep.Int(m.id), xrep.Str(m.defName), args, ports}
	// The log-name override is a fifth, optional field: older catalogs
	// (and guardians without one) stay four-field records.
	if m.logName != "" {
		fields = append(fields, xrep.Str(m.logName))
	}
	rec := xrep.Rec{Name: catalogCreateRec, Fields: fields}
	buf, err := wire.MarshalValue(rec)
	if err != nil {
		panic(fmt.Errorf("guardian: marshal catalog record: %w", err))
	}
	n.catalogLog().AppendSync(buf)
}

// catalogDestroy persists a tombstone: the guardian is gone for good and
// must not be recovered by any future incarnation of the node.
func (n *Node) catalogDestroy(id uint64) {
	rec := xrep.Rec{Name: catalogDestroyRec, Fields: xrep.Seq{xrep.Int(id)}}
	buf, err := wire.MarshalValue(rec)
	if err != nil {
		panic(fmt.Errorf("guardian: marshal catalog tombstone: %w", err))
	}
	n.catalogLog().AppendSync(buf)
}

// recoverCatalog replays the node's on-disk catalog after process death,
// re-creating recoverable guardians with their original identities and
// port names. Mirrors Restart, with the log standing in for the meta map.
// Guardians whose definition has vanished from the library or provides no
// Recover process are forgotten, like the paper's transaction processes
// (§3.5). Corruption anywhere — in the catalog itself or in a surviving
// guardian's own log — refuses startup rather than recovering wrongly.
func (n *Node) recoverCatalog() error {
	log, err := n.store.OpenLog(catalogLogName)
	if err != nil {
		return fmt.Errorf("opening catalog: %w", err)
	}
	metas := make(map[uint64]*guardianMeta)
	var order []uint64
	var maxID uint64
	err = Replay(log, nil, func(v xrep.Value) (bool, error) {
		switch xrep.RecName(v) {
		case catalogCreateRec:
			m, err := parseCatalogCreate(v)
			if err != nil {
				return true, err
			}
			if _, dup := metas[m.id]; !dup {
				order = append(order, m.id)
			}
			metas[m.id] = m
			maxID = max(maxID, m.id)
			return true, nil
		case catalogDestroyRec:
			f := xrep.ReadRec(v, catalogDestroyRec, 1)
			id := f.Int()
			if err := f.Err(); err != nil {
				return true, err
			}
			delete(metas, uint64(id))
			return true, nil
		}
		// The catalog log has one writer: anything else is damage.
		return true, fmt.Errorf("not a catalog record: %s", v)
	})
	if err != nil {
		return fmt.Errorf("reading catalog: %w", err)
	}

	// Ids are never reused, even across process death: a port name minted
	// before the crash must not come to denote a different guardian after.
	n.mu.Lock()
	if n.nextGID < maxID {
		n.nextGID = maxID
	}
	n.mu.Unlock()

	for _, id := range order {
		m, ok := metas[id]
		if !ok {
			continue // destroyed
		}
		def, err := n.world.lookupDef(m.defName)
		if err != nil || def.Recover == nil {
			continue // forgotten, as Restart forgets it
		}
		// The guardian's own log must open cleanly before its Recover
		// process runs: interior corruption there means its recovery data
		// cannot be trusted, and the node refuses to start rather than
		// resurrect a guardian with silently missing effects.
		logName := m.logName
		if logName == "" {
			logName = guardianLogName(m.defName, m.id)
		}
		if _, err := n.store.OpenLog(logName); err != nil {
			return fmt.Errorf("opening log of %s/%d: %w", m.defName, m.id, err)
		}
		n.mu.Lock()
		n.meta[id] = m
		n.mu.Unlock()
		if _, err := n.instantiate(def, m.args, m, true); err != nil {
			return fmt.Errorf("recovering %s/%d: %w", m.defName, id, err)
		}
		n.world.stats.GuardiansRecovered.Add(1)
		n.world.trace(EvRecover, n.name, "recovered %s (guardian %d) from the catalog", m.defName, id)
	}
	return nil
}

// parseCatalogCreate decodes one creation record.
func parseCatalogCreate(v xrep.Value) (*guardianMeta, error) {
	f := xrep.ReadRec(v, catalogCreateRec, 4)
	m := &guardianMeta{id: uint64(f.Int()), defName: f.Str(), args: f.Seq()}
	ports := xrep.ReadFields(f.Seq(), 0)
	for ports.More() {
		m.portIDs = append(m.portIDs, uint64(ports.Int()))
	}
	if f.More() {
		m.logName = f.Str()
	}
	return m, errors.Join(f.Err(), ports.Err())
}
