package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 10000 {
		t.Fatalf("Counter = %d, want 10000", c.Load())
	}
	c.Add(5)
	if c.Load() != 10005 {
		t.Fatalf("after Add(5) = %d", c.Load())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram returned nonzero stats")
	}
	if h.Count() != 0 {
		t.Fatal("empty histogram count != 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 50*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 30*time.Millisecond {
		t.Fatalf("P50 = %v, want 30ms", q)
	}
	if q := h.Quantile(1.0); q != 50*time.Millisecond {
		t.Fatalf("P100 = %v", q)
	}
	if q := h.Quantile(0.0); q != 10*time.Millisecond {
		t.Fatalf("P0 = %v", q)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotonic at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramCapBounded(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < maxSamples*2; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != int64(maxSamples*2) {
		t.Fatalf("Count = %d", h.Count())
	}
	if len(h.samples) != maxSamples {
		t.Fatalf("retained %d samples, cap %d", len(h.samples), maxSamples)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestSnapshot(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Snapshot.Count = %d", s.Count)
	}
	if s.P50 < 45*time.Millisecond || s.P50 > 55*time.Millisecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 < 95*time.Millisecond {
		t.Fatalf("P99 = %v", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("Max = %v", s.Max)
	}
}

func TestThroughput(t *testing.T) {
	start := time.Unix(0, 0)
	tp := NewThroughput(start)
	for i := 0; i < 500; i++ {
		tp.Done()
	}
	if tp.Ops() != 500 {
		t.Fatalf("Ops = %d", tp.Ops())
	}
	if got := tp.PerSecond(start.Add(2 * time.Second)); got != 250 {
		t.Fatalf("PerSecond = %v, want 250", got)
	}
	if got := tp.PerSecond(start); got != 0 {
		t.Fatalf("PerSecond at zero elapsed = %v, want 0", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Fig 1", "org", "throughput", "p95")
	tab.AddRow("one-at-a-time", 123.456, "9ms")
	tab.AddRow("serializer", 456.789, "3ms")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== Fig 1 ==", "org", "throughput", "one-at-a-time", "123.46", "serializer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow(1, 2)
	tab.AddRow("x", "y")
	var buf bytes.Buffer
	tab.CSV(&buf)
	want := "a,b\n1,2\nx,y\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableAccessors(t *testing.T) {
	tab := NewTable("t", "a", "b", "c")
	tab.AddRow(42, 1.23456, 3*time.Millisecond)
	if tab.Rows() != 1 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	if tab.Cell(0, 0) != "42" {
		t.Fatalf("Cell = %q", tab.Cell(0, 0))
	}
	// A cell keeps its value beside its text, so nothing re-parses a table.
	if tab.Cell(0, 1) != "1.23" || tab.Value(0, 1) != 1.23456 {
		t.Fatalf("float cell: text %q value %v", tab.Cell(0, 1), tab.Value(0, 1))
	}
	if tab.Cell(0, 2) != "3ms" || tab.Value(0, 2) != 3*time.Millisecond || tab.Value(0, 0) != 42 {
		t.Fatalf("values %v %v, text %q", tab.Value(0, 0), tab.Value(0, 2), tab.Cell(0, 2))
	}
}

func TestTableRenderEmpty(t *testing.T) {
	tab := NewTable("Empty", "col_a", "b")
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // title, header, rule — no row lines
		t.Fatalf("empty table rendered %d lines:\n%s", len(lines), buf.String())
	}
	// With no rows, columns are exactly header-wide.
	if lines[1] != "col_a  b" {
		t.Fatalf("header line = %q, want %q", lines[1], "col_a  b")
	}
	if lines[2] != "-----  -" {
		t.Fatalf("rule line = %q, want %q", lines[2], "-----  -")
	}

	// Untitled and empty: just the header block, no "==" banner.
	buf.Reset()
	NewTable("", "x").Render(&buf)
	if strings.Contains(buf.String(), "==") {
		t.Fatalf("untitled table printed a title banner:\n%s", buf.String())
	}

	buf.Reset()
	tab.CSV(&buf)
	if buf.String() != "col_a,b\n" {
		t.Fatalf("empty CSV = %q, want header only", buf.String())
	}
}

func TestTableRenderSingleRow(t *testing.T) {
	tab := NewTable("One", "name", "n")
	tab.AddRow("x", 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // title, header, rule, the row
		t.Fatalf("single-row table rendered %d lines:\n%s", len(lines), buf.String())
	}
	// The narrow cells pad out to their headers' widths.
	if lines[3] != "x     7" {
		t.Fatalf("row line = %q, want %q", lines[3], "x     7")
	}
}

func TestTableWidthClamping(t *testing.T) {
	// A cell wider than its header stretches the whole column; cells
	// beyond the header count are clamped — appended bare, not padded,
	// and never a panic.
	tab := NewTable("", "a", "b")
	tab.AddRow("wide-cell-one", 1, "overflow")
	tab.AddRow("x", 22222, "spill")
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if strings.TrimRight(lines[0], " ") != "a              b" {
		t.Fatalf("header not stretched to widest cell: %q", lines[0])
	}
	if lines[1] != "-------------  -----" {
		t.Fatalf("rule = %q", lines[1])
	}
	if lines[2] != "wide-cell-one  1      overflow" {
		t.Fatalf("row 0 = %q", lines[2])
	}
	if lines[3] != "x              22222  spill" {
		t.Fatalf("row 1 = %q", lines[3])
	}
}
