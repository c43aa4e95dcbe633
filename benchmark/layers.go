package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// layerSources is what a workload hands the traced run besides its spans.
type layerSources struct {
	worlds []*guardian.World
	// net names the layer the world's transport spans belong to: "netsim"
	// or "transport".
	net string
	// amo is the callers' private metrics; nil when the workload makes no
	// at-most-once calls.
	amo *amo.Metrics
	// clientNode hosts every client; nsNode and coordNode host the name
	// service and the 2PC coordinator where there are any.
	clientNode, nsNode, coordNode string
	// ring and keys let the traced run time placement lookups on the keys
	// the clients drew.
	ring  *ring.Ring
	keys  []string
	probe *probeTargets
}

// ---- probes ----

// probeTargets is what the traced run's probes talk to. A probe is a short
// single-threaded loop, run on the traced world after the clients have
// stopped, around calls the harness can only wrap when it makes them
// itself: a bare Process.Send, a Receive, a sendprim.Call, an amo call.
type probeTargets struct {
	tr       *tracer
	cli, srv uint16 // tracer node indexes

	driver *guardian.Process
	reply  *guardian.Port
	echo   xrep.PortName
	args   []any

	// The bank pair: the same zero-amount deposit through the native port
	// with sendprim.Call and through the amo port with a Caller.
	native, amoPort xrep.PortName
	caller          *amo.Caller
	acct            string
}

// echoProbe bootstraps the benchmark's echo guardian on srv. The returned
// probe is nil in an untraced round.
func echoProbe(e *env, w *guardian.World, srv *guardian.Node) (*probeTargets, xrep.PortName, error) {
	var p *probeTargets
	var onRecv func()
	if e.tr != nil {
		p = &probeTargets{tr: e.tr, srv: e.tr.node(srv.Name())}
		onRecv = p.echoRecv
	}
	if err := w.Register(echoDef(onRecv)); err != nil {
		return nil, xrep.PortName{}, err
	}
	cr, err := srv.Bootstrap("bench_echo")
	if err != nil {
		return nil, xrep.PortName{}, err
	}
	if p != nil {
		p.echo = cr.Ports[0]
	}
	return p, cr.Ports[0], nil
}

// echoRecv marks the moment the echo guardian's Receive returned; the
// span's start is moved back to the end of the packet handler that
// delivered the message when the trace is resolved.
func (p *probeTargets) echoRecv() {
	now := p.tr.now()
	p.tr.add(span{name: spWake, node: p.srv, start: now, end: now})
}

// attach gives the probe its own driver on the client node.
func (p *probeTargets) attach(cli *guardian.Node, args []any) error {
	g, drv, err := cli.NewDriver("probe")
	if err != nil {
		return err
	}
	reply, err := g.NewPort(echoReplyType, 8)
	if err != nil {
		return err
	}
	p.cli, p.driver, p.reply, p.args = p.tr.node(cli.Name()), drv, reply, args
	return nil
}

// bankProbe sets up the probes of a bank workload: an echo guardian beside
// the branch, and a caller for the sendprim/amo pair. Nil in an untraced
// round.
func bankProbe(e *env, w *guardian.World, cli, srv *guardian.Node, native, amoPort xrep.PortName, m *amo.Metrics, acct string) (*probeTargets, error) {
	p, _, err := echoProbe(e, w, srv)
	if p == nil || err != nil {
		return nil, err
	}
	if err := p.attach(cli, []any{xrep.Seq{xrep.Str(acct), xrep.Int(1)}}); err != nil {
		return nil, err
	}
	p.native, p.amoPort, p.acct = native, amoPort, acct
	p.caller, err = amo.NewCaller(p.driver, callerOpts(m))
	return p, err
}

// probeCalls and probeTime bound one probe loop.
const (
	probeCalls = 2000
	probeTime  = 400 * time.Millisecond
)

// run performs the probe loops with the tracer on.
func (p *probeTargets) run() error {
	tr := p.tr
	tr.extendCapture()
	tr.on.Store(true)
	defer tr.on.Store(false)

	loop := func(body func(i int) error) error {
		begin := time.Now()
		for i := 0; i < probeCalls && time.Since(begin) < probeTime; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}
	// Process.Send and the two wake-ups of an echo round trip.
	err := loop(func(int) error {
		t0 := tr.now()
		err := p.driver.SendReplyTo(p.echo, p.reply.Name(), "echo", p.args...)
		t1 := tr.now()
		if err != nil {
			return err
		}
		tr.add(span{name: spProcSend, node: p.cli, start: t0, end: t1})
		if _, st := p.driver.Receive(callTimeout, p.reply); st != guardian.RecvOK {
			return fmt.Errorf("probe echo: receive %v", st)
		}
		t2 := tr.now()
		tr.add(span{name: spWake, node: p.cli, start: t2, end: t2})
		return nil
	})
	if err != nil {
		return err
	}
	if p.caller == nil {
		// No bank here: the bare call is an echo of the same payload.
		return loop(func(int) error {
			t0 := tr.now()
			_, err := sendprim.Call(p.driver, p.echo, echoReplyType, pingOpts, "echo", p.args...)
			tr.add(span{name: spSendprim, start: t0, end: tr.now()})
			return err
		})
	}
	opIDs := make([]string, probeCalls)
	for i := range opIDs {
		opIDs[i] = fmt.Sprintf("probe-%d", i)
	}
	err = loop(func(i int) error {
		t0 := tr.now()
		m, err := sendprim.Call(p.driver, p.native, bank.ClientReplyType, pingOpts, "deposit", p.acct, int64(0), opIDs[i])
		tr.add(span{name: spSendprim, start: t0, end: tr.now()})
		if err == nil && m.Command != bank.OutcomeOK {
			err = fmt.Errorf("probe deposit: %s", m.Command)
		}
		return err
	})
	if err != nil {
		return err
	}
	return loop(func(int) error {
		t0 := tr.now()
		err := expect(p.caller, p.amoPort, bank.OutcomeOK, "deposit", p.acct, int64(0))
		tr.add(span{name: spAmoCall, start: t0, end: tr.now()})
		return err
	})
}

// extendCapture lets the tracer keep more packets for replay: the probes'
// own, after the traced window may have used the budget up.
func (t *tracer) extendCapture() {
	t.mu.Lock()
	t.capLimit = t.capBytes + probeBudget
	t.capFull.Store(false)
	t.mu.Unlock()
}

// ---- counters ----

// counters is a reading of every counter the runtime keeps that a layer
// metric is the delta of.
type counters struct {
	msgsSent, discards                  int64
	tr                                  transport.Stats
	syncs                               int64
	retries, redirects, deduped, replay int64
}

func readCounters(ls *layerSources) counters {
	var c counters
	for _, w := range ls.worlds {
		st := w.Stats()
		c.msgsSent += st.MessagesSent.Load()
		c.discards += st.DiscardNoNode.Load() + st.DiscardNoGuardian.Load() + st.DiscardNoPort.Load() +
			st.DiscardPortFull.Load() + st.DiscardBadType.Load() + st.DiscardBadFrame.Load()
		ts := w.Transport().Stats()
		c.tr.Sent += ts.Sent
		c.tr.BytesSent += ts.BytesSent
		c.tr.Dropped += ts.Dropped
		c.tr.RecvErrors += ts.RecvErrors
		for _, name := range w.Nodes() {
			if n, err := w.Node(name); err == nil {
				c.syncs += n.Store().SyncCount()
			}
		}
	}
	if ls.amo != nil {
		c.retries = ls.amo.Retries.Load()
		c.redirects = ls.amo.Redirects.Load()
	}
	// The dedup filters inside the branches report to the package default.
	c.deduped = amo.Default.CallsDeduped.Load()
	c.replay = amo.Default.RepliesReplayed.Load()
	return c
}

// ---- replay ----

// replayCosts is what pushing the captured messages through wire and xrep
// again, outside the world, cost per message.
type replayCosts struct {
	msgs                                          int
	marshal, unmarshal, fragment, reassemble      float64 // ns per message
	encode, decode                                float64 // ns per message
	wireAllocs, xrepAllocs, fragments, frameBytes float64 // per message
	frames                                        []*wire.Frame
	firstSpan                                     []int32 // the send span of each message's first packet
}

// timed runs f and returns its duration in ns and the heap objects it
// allocated.
func timed(f func()) (ns float64, allocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(d), float64(b.Mallocs - a.Mallocs)
}

// replayMax bounds the messages replayed.
const replayMax = 60000

// replay reassembles the captured packets whose send span satisfies keep
// into messages and times each wire and xrep step over all of them.
func replay(tr *tracer, spans []span, keep func(*span) bool) (rc replayCosts) {
	type key struct {
		node uint16
		msg  uint64
	}
	groups := make(map[key][]capture)
	var order []key
	for _, c := range tr.captured {
		s := &spans[c.span]
		if !keep(s) || s.msg == 0 {
			continue
		}
		k := key{s.node, s.msg}
		if _, seen := groups[k]; !seen {
			if len(order) == replayMax {
				continue
			}
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	if len(order) == 0 {
		return rc
	}
	var packets int
	raws := make([][]byte, 0, len(order))
	now := time.Now()
	ns, allocs := timed(func() {
		ra := wire.NewReassembler()
		for _, k := range order {
			for _, c := range groups[k] {
				raw, err := ra.Add(tr.nodes[k.node], tr.payload(c), now)
				if err == nil && raw != nil {
					raws = append(raws, raw)
					rc.firstSpan = append(rc.firstSpan, groups[k][0].span)
				}
				packets++
			}
		}
	})
	n := float64(len(raws))
	if n == 0 {
		return replayCosts{}
	}
	rc.msgs = len(raws)
	rc.reassemble, rc.wireAllocs = ns/n, allocs/n
	rc.fragments = float64(packets) / n

	rc.frames = make([]*wire.Frame, 0, len(raws))
	ns, allocs = timed(func() {
		for _, raw := range raws {
			if f, err := wire.UnmarshalFrame(raw); err == nil {
				rc.frames = append(rc.frames, f)
			}
		}
	})
	rc.unmarshal = ns / n
	rc.wireAllocs += allocs / n

	var bytes int
	ns, allocs = timed(func() {
		for i, f := range rc.frames {
			raw, _ := f.Marshal()
			raws[i] = raw
			bytes += len(raw)
		}
	})
	rc.marshal = ns / n
	rc.wireAllocs += allocs / n
	rc.frameBytes = float64(bytes) / n

	ns, allocs = timed(func() {
		for i, f := range rc.frames {
			_, _ = wire.Fragment(f.MsgID, raws[i], defaultMTU)
		}
	})
	rc.fragment = ns / n
	rc.wireAllocs += allocs / n

	// The value codec alone: Go values to external rep to bytes and back.
	argv := make([][]any, len(rc.frames))
	for i, f := range rc.frames {
		argv[i] = make([]any, len(f.Args))
		for j, a := range f.Args {
			argv[i][j] = a
		}
	}
	ns, allocs = timed(func() {
		for i := range rc.frames {
			seq, _ := xrep.EncodeAll(argv[i]...)
			raws[i], _ = wire.MarshalValue(seq)
		}
	})
	rc.encode, rc.xrepAllocs = ns/n, allocs/n
	ns, allocs = timed(func() {
		for _, raw := range raws {
			_, _ = wire.UnmarshalValue(raw)
		}
	})
	rc.decode = ns / n
	rc.xrepAllocs += allocs / n
	return rc
}

// ---- the per-layer report ----

// The per-layer metrics, by name, with their units. Every traced run
// reports all of them; a layer the workload does not touch reads 0.
var perLayer = []struct{ name, unit string }{
	// The timing metrics, from the traced round's two untraced windows.
	{"ops_per_s", "1/s"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"}, {"cpu_us_per_op", "us"},
	{"xrep.encode_ns_per_op", "ns"}, {"xrep.decode_ns_per_op", "ns"}, {"xrep.allocs_per_op", "count"},
	{"wire.marshal_ns_per_op", "ns"}, {"wire.unmarshal_ns_per_op", "ns"}, {"wire.fragment_ns_per_op", "ns"},
	{"wire.reassemble_ns_per_op", "ns"}, {"wire.allocs_per_op", "count"}, {"wire.fragments_per_op", "count"},
	{"wire.bytes_per_op", "B"},
	{"guardian.send_ns_per_op", "ns"}, {"guardian.dispatch_ns_per_op", "ns"}, {"guardian.wake_ns_per_op", "ns"},
	{"guardian.msgs_per_op", "count"}, {"guardian.discards", "count"},
	{"netsim.send_ns_per_op", "ns"}, {"netsim.transit_ns_per_op", "ns"},
	{"transport.send_ns_per_op", "ns"}, {"transport.transit_ns_per_op", "ns"},
	{"transport.packets_per_op", "count"}, {"transport.bytes_per_op", "B"},
	{"transport.dropped", "count"}, {"transport.recv_errors", "count"},
	{"sendprim.call_ns_per_op", "ns"}, {"amo.call_ns_per_op", "ns"}, {"amo.overhead_ns_per_op", "ns"},
	{"amo.retries_per_op", "count"}, {"amo.deduped", "count"}, {"amo.replayed", "count"},
	{"durable.append_ns_per_op", "ns"}, {"durable.sync_ns_per_op", "ns"}, {"durable.sync_wait_ns_per_op", "ns"},
	{"durable.fsyncs_per_op", "count"}, {"durable.records_per_sync", "count"},
	{"durable.checkpoint_ns", "ns"}, {"durable.checkpoints", "count"},
	{"bank.read_p50_us", "us"}, {"bank.write_p50_us", "us"}, {"bank.router_call_ns_per_op", "ns"},
	{"bank.redirects_per_op", "count"}, {"ring.owner_ns_per_op", "ns"}, {"nameserv.lookups_per_op", "count"},
	{"tpc.transfer_p50_us", "us"}, {"tpc.msgs_per_txn", "count"}, {"tpc.aborts_per_op", "count"},
	{"trace.latency_p50_us", "us"}, {"trace.latency_p99_us", "us"}, {"trace.latency_mean_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"}, {"trace.spans", "count"}, {"trace.spans_lost", "count"},
}

// tracedRound is everything the report is computed from.
type tracedRound struct {
	ls             *layerSources
	tr             *tracer
	spans          []span
	win            *windowResult     // the traced window
	untraced       map[string]metric // the timing metrics over the untraced windows around it
	driven         int64             // when set-up ended and the clients started, in tracer time
	w0, w1         int64             // the traced window, in tracer time
	before, after  counters          // around the traced window
	ledger         []ledgerRow
	unattributedNS float64
}

type ledgerRow struct {
	name string
	ns   float64
	note string
}

func mean(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// report resolves the trace and computes every per-layer metric.
func (r *tracedRound) report() map[string]metric {
	tr, spans, ls := r.tr, r.spans, r.ls
	m := make(map[string]float64, len(perLayer))
	inWin := func(s *span) bool { return s.start >= r.w0 && s.end <= r.w1 }

	// Operations of the traced window.
	var ops int
	var opNS float64
	for i := range spans {
		if s := &spans[i]; s.name == spOp && inWin(s) {
			ops++
			opNS += float64(s.dur())
		}
	}
	if ops == 0 {
		ops = 1 // a window with no completed op reports zeros, not NaNs
	}
	perOp := func(total float64) float64 { return total / float64(ops) }
	delta := func(f func(c *counters) int64) float64 { return float64(f(&r.after) - f(&r.before)) }
	msgsPerOp := perOp(delta(func(c *counters) int64 { return c.msgsSent }))

	// Packets: pair each dispatch with the send of the same fragment.
	type pkt struct {
		node uint16
		frag uint16
		msg  uint64
	}
	sentAt := make(map[pkt]int64)
	var sendNS, dispatchNS, transitNS float64
	var nsMsgs, coordMsgs int
	nsNode, coordNode := -1, -1
	if ls.nsNode != "" {
		nsNode = int(tr.node(ls.nsNode))
	}
	if ls.coordNode != "" {
		coordNode = int(tr.node(ls.coordNode))
	}
	for i := range spans {
		s := &spans[i]
		if s.name != spSend || !inWin(s) {
			continue
		}
		sendNS += float64(s.dur())
		if s.msg != 0 {
			sentAt[pkt{s.node, s.frag, s.msg}] = s.start
		}
		if int(s.node) == coordNode || int(s.peer) == coordNode {
			coordMsgs++
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name != spDispatch || !inWin(s) {
			continue
		}
		dispatchNS += float64(s.dur())
		// A message is in transit until its last packet reaches the
		// handler; the earlier packets of a fragmented message travel
		// while the sender is still sending, off the blocking path.
		if t0, ok := sentAt[pkt{s.peer, s.frag, s.msg}]; ok && s.kind == 1 && s.start > t0 {
			transitNS += float64(s.start - t0)
		}
		if int(s.node) == nsNode {
			nsMsgs++
		}
	}
	m[ls.net+".send_ns_per_op"] = perOp(sendNS)
	m[ls.net+".transit_ns_per_op"] = perOp(transitNS)
	m["guardian.dispatch_ns_per_op"] = perOp(dispatchNS)
	m["guardian.msgs_per_op"] = msgsPerOp
	m["guardian.discards"] = delta(func(c *counters) int64 { return c.discards })
	m["transport.packets_per_op"] = perOp(delta(func(c *counters) int64 { return c.tr.Sent }))
	m["transport.bytes_per_op"] = perOp(delta(func(c *counters) int64 { return c.tr.BytesSent }))
	m["transport.dropped"] = delta(func(c *counters) int64 { return c.tr.Dropped })
	m["transport.recv_errors"] = delta(func(c *counters) int64 { return c.tr.RecvErrors })
	m["nameserv.lookups_per_op"] = perOp(float64(nsMsgs))

	// Replayed wire and xrep, scaled from per message to per op.
	rc := replay(tr, spans, inWin)
	m["wire.marshal_ns_per_op"] = rc.marshal * msgsPerOp
	m["wire.unmarshal_ns_per_op"] = rc.unmarshal * msgsPerOp
	m["wire.fragment_ns_per_op"] = rc.fragment * msgsPerOp
	m["wire.reassemble_ns_per_op"] = rc.reassemble * msgsPerOp
	m["wire.allocs_per_op"] = rc.wireAllocs * msgsPerOp
	m["wire.fragments_per_op"] = rc.fragments * msgsPerOp
	m["wire.bytes_per_op"] = rc.frameBytes * msgsPerOp
	m["xrep.encode_ns_per_op"] = rc.encode * msgsPerOp
	m["xrep.decode_ns_per_op"] = rc.decode * msgsPerOp
	m["xrep.allocs_per_op"] = rc.xrepAllocs * msgsPerOp
	r.resolveOps(rc)

	// Probes: Process.Send's self time, the wake-up, the two call shapes.
	// Each is a median over the probe's calls: a probe lasts tens of
	// milliseconds, and one collection or checkpoint inside it would own
	// its mean.
	var procSendSelf, wakeNS, sendprimNS, amoNS []float64
	dispatchEnds := make(map[uint16][]int64) // per node, ascending
	var probeSends []span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.name == spDispatch && !inWin(s):
			dispatchEnds[s.node] = append(dispatchEnds[s.node], s.end)
		case s.name == spSend && !inWin(s):
			probeSends = append(probeSends, *s)
		}
	}
	for _, ends := range dispatchEnds {
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	}
	var probeSendFirst, probeSendLast int64
	for i := range spans {
		s := &spans[i]
		switch s.name {
		case spProcSend:
			var kids []span
			for j := range probeSends {
				if c := &probeSends[j]; c.node == s.node && c.start >= s.start && c.end <= s.end {
					kids = append(kids, *c)
				}
			}
			procSendSelf = append(procSendSelf, float64(selfTime(*s, kids)))
			if probeSendFirst == 0 {
				probeSendFirst = s.start
			}
			probeSendLast = s.end
		case spWake:
			// The wake-up began when the handler that delivered the
			// message returned: the latest dispatch end on that node.
			ends := dispatchEnds[s.node]
			if j := sort.Search(len(ends), func(j int) bool { return ends[j] > s.end }); j > 0 {
				s.start = ends[j-1]
				wakeNS = append(wakeNS, float64(s.dur()))
			}
		case spSendprim:
			sendprimNS = append(sendprimNS, float64(s.dur()))
		case spAmoCall:
			amoNS = append(amoNS, float64(s.dur()))
		}
	}
	// Process.Send's self time still holds the argument encoding, the
	// frame marshal and the fragmentation, which the wire and xrep rows
	// already carry; take the probe's own messages' share out.
	probeRC := replay(tr, spans, func(s *span) bool {
		return s.node == ls.probeNode() && s.start >= probeSendFirst && s.end <= probeSendLast
	})
	sendSelf := median(procSendSelf) - (probeRC.marshal + probeRC.fragment)
	if sendSelf < 0 {
		sendSelf = 0
	}
	m["guardian.send_ns_per_op"] = sendSelf * msgsPerOp
	m["guardian.wake_ns_per_op"] = median(wakeNS) * msgsPerOp
	m["sendprim.call_ns_per_op"] = median(sendprimNS)
	if len(amoNS) > 0 {
		m["amo.call_ns_per_op"] = median(amoNS)
		m["amo.overhead_ns_per_op"] = median(amoNS) - median(sendprimNS)
	}
	m["amo.retries_per_op"] = perOp(delta(func(c *counters) int64 { return c.retries }))
	m["amo.deduped"] = delta(func(c *counters) int64 { return c.deduped })
	m["amo.replayed"] = delta(func(c *counters) int64 { return c.replay })
	m["bank.redirects_per_op"] = perOp(delta(func(c *counters) int64 { return c.redirects }))

	// Durable: time inside the log calls of the window; checkpoints from
	// the end of set-up on, since a window may see none.
	var appendNS, syncNS, cpNS float64
	var records, cps int
	syncs := make(map[uint16][][2]int64)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.name == spAppend && inWin(s):
			appendNS += float64(s.dur())
			records++
		case s.name == spSync && inWin(s):
			syncNS += float64(s.dur())
			records += int(s.kind)
			syncs[s.node] = append(syncs[s.node], [2]int64{s.start, s.end})
		case s.name == spCheckpoint && s.start >= r.driven:
			cpNS += float64(s.dur())
			cps++
		}
	}
	var syncCover float64
	for _, ivs := range syncs {
		syncCover += float64(cover(r.w0, r.w1, ivs))
	}
	fsyncs := delta(func(c *counters) int64 { return c.syncs })
	m["durable.append_ns_per_op"] = perOp(appendNS)
	m["durable.sync_ns_per_op"] = perOp(syncNS)
	m["durable.sync_wait_ns_per_op"] = perOp(syncNS - syncCover)
	m["durable.fsyncs_per_op"] = perOp(fsyncs)
	if fsyncs > 0 {
		m["durable.records_per_sync"] = float64(records) / fsyncs
	}
	m["durable.checkpoint_ns"] = mean(cpNS, cps)
	m["durable.checkpoints"] = float64(cps)

	// Bank, ring, tpc: the clients' own histograms, read apart by kind.
	win := r.win
	if ls.amo != nil {
		var writes hist
		writes.merge(&win.h[kindWrite])
		writes.merge(&win.h[kindTransfer])
		m["bank.read_p50_us"] = win.h[kindRead].quantile(0.5) / 1e3
		m["bank.write_p50_us"] = writes.quantile(0.5) / 1e3
	}
	if ls.ring != nil {
		var routed hist
		routed.merge(&win.h[kindWrite])
		routed.merge(&win.h[kindRead])
		m["bank.router_call_ns_per_op"] = routed.mean()
		transfers := float64(win.h[kindTransfer].n + win.h[kindTPC].n)
		lookups := (float64(win.ops) + transfers) / float64(win.ops) // a transfer places two accounts
		var sink int
		ns, _ := timed(func() {
			for _, k := range ls.keys {
				if mem, ok := ls.ring.Owner(k); ok {
					sink += len(mem.Name)
				}
			}
		})
		_ = sink
		m["ring.owner_ns_per_op"] = mean(ns, len(ls.keys)) * lookups
		m["tpc.transfer_p50_us"] = win.h[kindTPC].quantile(0.5) / 1e3
		if n := win.h[kindTPC].n; n > 0 {
			m["tpc.msgs_per_txn"] = float64(coordMsgs) / float64(n)
		}
		m["tpc.aborts_per_op"] = float64(win.failed[kindTPC]+win.failed[kindTransfer]) / float64(win.ops)
	}

	// The ledger: layer self times that should add up to an op's latency.
	all := win.all()
	latency := perOp(opNS)
	wireNS := m["wire.marshal_ns_per_op"] + m["wire.unmarshal_ns_per_op"] + m["wire.fragment_ns_per_op"] + m["wire.reassemble_ns_per_op"]
	dispatchSelf := m["guardian.dispatch_ns_per_op"] - m["wire.unmarshal_ns_per_op"] - m["wire.reassemble_ns_per_op"]
	if dispatchSelf < 0 {
		dispatchSelf = 0
	}
	r.ledger = []ledgerRow{
		{ls.net + " transit", m[ls.net+".transit_ns_per_op"], "Send entry to handler entry, every packet"},
		{"guardian.dispatch", dispatchSelf, "handler time minus replayed reassemble+unmarshal"},
		{"guardian.send", m["guardian.send_ns_per_op"], "probe: Process.Send minus transport send, marshal, fragment"},
		{"guardian.wake", m["guardian.wake_ns_per_op"], "probe: handler return to Receive return"},
		{"wire", wireNS, fmt.Sprintf("replayed; of which xrep value codec %.0f", m["xrep.encode_ns_per_op"]+m["xrep.decode_ns_per_op"])},
		{"durable", m["durable.append_ns_per_op"] + m["durable.sync_ns_per_op"], "time inside Append/Sync/AppendSync"},
		{"amo", m["amo.overhead_ns_per_op"], "probe: amo call minus sendprim call, same deposit"},
	}
	var attributed float64
	for _, row := range r.ledger {
		attributed += row.ns
	}
	r.unattributedNS = latency - attributed
	m["trace.latency_p50_us"] = all.quantile(0.5) / 1e3
	m["trace.latency_p99_us"] = all.quantile(0.99) / 1e3
	m["trace.latency_mean_us"] = latency / 1e3
	if latency > 0 {
		m["trace.unattributed_ratio"] = r.unattributedNS / latency
	}
	for name, tm := range r.untraced {
		m[name] = tm.Value
	}
	if rate := float64(win.ops) / win.seconds; rate > 0 {
		m["trace.overhead_ratio"] = m["ops_per_s"] / rate
	}
	m["trace.spans"] = float64(len(spans))
	m["trace.spans_lost"] = float64(tr.lost.Load())

	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		out[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
	}
	return out
}

// probeNode is the tracer index of the node the probes send from.
func (ls *layerSources) probeNode() uint16 {
	if ls.probe == nil {
		return ^uint16(0)
	}
	return ls.probe.cli
}

// resolveOps gives the packet spans of the replayed messages the id of the
// client op they served, and links them under that op's span. A message
// names its sending guardian and its destination guardian; when one of
// them is a client's driver, the op is the one that client had in flight.
func (r *tracedRound) resolveOps(rc replayCosts) {
	spans, tr := r.spans, r.tr
	cli := tr.node(r.ls.clientNode)
	// Each client's op spans are consecutive in time; index them by the
	// client number the op id carries.
	byClient := make(map[uint64][]int32)
	for i := range spans {
		if s := &spans[i]; s.name == spOp {
			byClient[s.op>>40] = append(byClient[s.op>>40], int32(i))
		}
	}
	// A driver guardian's first message inside an op's span ties that
	// guardian to the client.
	guardianClient := make(map[uint64]uint64)
	find := func(client uint64, at int64) int32 {
		ops := byClient[client]
		j := sort.Search(len(ops), func(j int) bool { return spans[ops[j]].end >= at })
		if j < len(ops) && spans[ops[j]].start <= at {
			return ops[j]
		}
		return -1
	}
	type pkt struct {
		node uint16
		msg  uint64
	}
	owner := make(map[pkt]int32)
	for i, f := range rc.frames {
		send := &spans[rc.firstSpan[i]]
		var g uint64
		switch {
		case send.node == cli:
			g = f.SrcGuardian
		case send.peer == cli:
			g = f.Dest.Guardian
		default:
			continue
		}
		client, known := guardianClient[g]
		if !known {
			// Clients overlap in time; a guardian is bound to the client
			// only when exactly one client's op covers the send.
			var hit uint64
			n := 0
			for c := range byClient {
				if find(c, send.start) >= 0 {
					hit, n = c, n+1
				}
			}
			if n != 1 {
				continue
			}
			client, guardianClient[g] = hit, hit
		}
		if op := find(client, send.start); op >= 0 {
			owner[pkt{send.node, send.msg}] = op
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name != spSend && s.name != spDispatch {
			continue
		}
		from := s.node
		if s.name == spDispatch {
			from = s.peer
		}
		if op, ok := owner[pkt{from, s.msg}]; ok {
			s.parent, s.op = op, spans[op].op
		}
	}
}

// printLedger writes the reconciliation to standard error.
func (r *tracedRound) printLedger(name string, m map[string]metric) {
	latency := m["trace.latency_mean_us"].Value * 1e3
	logf("%s: where one op's time goes (traced window, ns per op)", name)
	for _, row := range r.ledger {
		logf("  %-20s %10.0f  %5.1f%%  %s", row.name, row.ns, 100*row.ns/latency, row.note)
	}
	logf("  %-20s %10.0f  %5.1f%%  latency not attributed to a row above", "unattributed", r.unattributedNS, 100*r.unattributedNS/latency)
	logf("  %-20s %10.0f          mean; p50 %.0f", "latency", latency, m["trace.latency_p50_us"].Value*1e3)
}
