package guardian

import "testing"

// TestFifoKeepsItsArray: the port queues must not reallocate as messages
// and waiters come and go — neither when each one drains the queue (the
// steady state of a receive loop) nor under a standing backlog.
func TestFifoKeepsItsArray(t *testing.T) {
	vals := make([]*int, 8)
	for i := range vals {
		vals[i] = new(int)
	}
	var q fifo[*int]
	cycle := func() {
		q.push(vals[0])
		if q.pop() != vals[0] || q.len() != 0 {
			t.Fatal("push/pop lost the element")
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a draining push/pop allocates %v times", n)
	}

	// Three always queued: order holds and the array stops growing.
	for _, v := range vals[:3] {
		q.push(v)
	}
	next := 3
	backlog := func() {
		q.push(vals[next%len(vals)])
		if got, want := q.pop(), vals[(next-3)%len(vals)]; got != want {
			t.Fatal("fifo order broken under a backlog")
		}
		next++
	}
	if n := testing.AllocsPerRun(1000, backlog); n != 0 {
		t.Fatalf("push/pop under a standing backlog allocates %v times", n)
	}
	if q.len() != 3 || cap(q.items) > 16 {
		t.Fatalf("len %d, cap %d after 1000 cycles over a backlog of 3", q.len(), cap(q.items))
	}

	// remove takes out the middle one and keeps the rest in order.
	a, b, c := q.items[q.head], q.items[q.head+1], q.items[q.head+2]
	q.remove(b)
	q.remove(b) // absent: no effect
	if q.len() != 2 || q.pop() != a || q.pop() != c || q.len() != 0 || q.head != 0 {
		t.Fatal("remove disturbed the queue")
	}
}
