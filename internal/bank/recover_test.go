package bank_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// countingStore counts Recover calls on its logs.
type countingStore struct {
	durable.Store
	recovers *atomic.Int64
}

func (s countingStore) OpenLog(name string) (durable.Log, error) {
	l, err := s.Store.OpenLog(name)
	return countingLog{l, s.recovers}, err
}

type countingLog struct {
	durable.Log
	recovers *atomic.Int64
}

func (l countingLog) Recover() ([]byte, []durable.Record, error) {
	l.recovers.Add(1)
	return l.Log.Recover()
}

// TestRecoveryUnmarshalsEachRecordOnce: a recovering branch — dedup filter
// on, shard member — reads its log once and unmarshals each record once.
// Unmarshalling is counted by what it must allocate: every record here
// carries a 256 KiB account name, which each unmarshal copies out of the
// record and each Recover call copies out of the store, so the bytes
// allocated across the restart, in units of the log's size, are the Recover
// calls plus the unmarshals per record. (The parent commit read the log
// twice and unmarshalled each record three times: shard fold, op decode,
// then the dedup filter's own pass.)
func TestRecoveryUnmarshalsEachRecordOnce(t *testing.T) {
	var recovers atomic.Int64
	w := guardian.NewWorld(guardian.Config{Store: func(string) (durable.Store, error) {
		return countingStore{durable.NewMem(vtime.NewReal(), durable.MemConfig{}), &recovers}, nil
	}})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	nb := w.MustAddNode("branch")
	created, err := nb.Bootstrap(bank.BranchDefName, bank.ShardArg("s1"))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := nb.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("branch guardian vanished")
	}
	// Deposits to an account that was never opened: they replay as
	// no_account, so the only copies of the name are the ones counted.
	const records, nameLen = 8, 256 << 10
	logBytes := 0
	for i := 0; i < records; i++ {
		rec, err := wire.MarshalValue(xrep.Seq{
			xrep.Str("deposit"), xrep.Str(strings.Repeat("n", nameLen)), xrep.Int(int64(i)), xrep.Str(""),
		})
		if err != nil {
			t.Fatal(err)
		}
		logBytes += len(rec)
		g.Log().Append(rec)
	}
	g.Log().Sync()
	_, drv, err := w.MustAddNode("cli").NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}

	nb.Crash()
	recovers.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := nb.Restart(); err != nil {
		t.Fatal(err)
	}
	// The branch answers once its recovery is done.
	m, err := sendprim.Call(drv, created.Ports[0], bank.ClientReplyType,
		sendprim.CallOptions{Timeout: 5 * time.Second, Retries: 3}, "balance", "nobody")
	if err != nil || m.Command != bank.OutcomeNoAccount {
		t.Fatalf("balance after recovery: %v %v", m, err)
	}
	runtime.ReadMemStats(&after)

	copies := float64(after.TotalAlloc-before.TotalAlloc) / float64(logBytes)
	unmarshals := copies - float64(recovers.Load())
	t.Logf("recovery read the log %d time(s) and allocated %.2f× its %d bytes: %.2f unmarshals a record",
		recovers.Load(), copies, logBytes, unmarshals)
	if recovers.Load() != 1 || unmarshals < 0.9 || unmarshals > 1.5 {
		t.Errorf("recovery read the log %d time(s) and unmarshalled each record %.2f times, want 1 and 1",
			recovers.Load(), unmarshals)
	}
}
