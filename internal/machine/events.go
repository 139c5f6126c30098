// The discrete-event runtime: the same simulated machine as Machine,
// executed by a sequential event scheduler instead of live goroutine
// blocking.
//
// The goroutine runtime (machine.go) allocates a P x P channel matrix
// and lets the Go scheduler interleave P concurrently-blocking
// processors — faithful, but at N=4096 that is 16.7M channels before
// the first message moves, and every simulated message costs a real
// context switch. The batched schedules of the exec backend are
// value-independent per-pair epoch streams, which is exactly the form a
// discrete-event simulator consumes: EventMachine keeps the processors
// as cooperatively-scheduled coroutines (one runnable at a time), a
// priority queue ordered by (simulated clock, rank) decides who runs
// next, and per-pair message queues exist only for pairs that actually
// exchange traffic.
//
// Equivalence to the goroutine runtime is structural, not accidental:
// a processor's values, clock and counters depend only on its own
// program order and on per-pair FIFO message order — both preserved
// here — and every clock advance goes through the same shared pricing
// (Config.SendTiming, Tf compute costs). The scheduler's priority
// order affects only wall-clock interleaving, never results, so
// Result.Stats and final values are bit-identical across engines; the
// goroutine runtime stays as the semantics oracle the same way
// RunExact backs the batched executor.
package machine

import (
	"container/heap"
	"fmt"

	"dmcc/internal/grid"
)

// EventMachine is a simulated q-D grid of processors driven by a
// discrete-event scheduler. Unlike Machine it allocates no per-pair
// channels up front: message queues appear on first use and grow
// unboundedly, so Send never blocks (ChanCap is ignored — the batched
// schedules this runtime executes are deadlock-free at any capacity,
// and simulated results are capacity-independent).
type EventMachine struct {
	grid *grid.Grid
	cfg  Config
	// queues holds the live per-pair FIFO queues, keyed by
	// src*P + dst. Sparse: nearest-neighbour kernels at N=4096 touch
	// O(N) pairs, not O(N^2).
	queues map[int64]*pairQueue
	ready  procHeap
	// direct is the fast path for the dominant scheduling pattern —
	// exactly one processor runnable (ping-pong pipelines, serial
	// chains): the sole runnable processor is held here instead of the
	// heap and resumed without a push/pop round trip. The invariant is
	// direct != nil => ready is empty; the moment a second processor
	// becomes runnable, direct migrates into the heap and ordinary
	// (clock, rank) ordering resumes.
	direct         *EventProc
	directHandoffs int64
	// yield is the coroutine handoff: the running processor signals the
	// scheduler here when it parks, finishes, or unwinds.
	yield chan yieldSignal
	// abortFlag mirrors Machine.dead: once set, parked processors are
	// resumed only to unwind with deadErr.
	abortFlag  bool
	deadlocked bool
}

// pairQueue is one ordered pair's FIFO message queue, with a head
// cursor so Pop is O(1) without reslicing the backing array away.
type pairQueue struct {
	buf  []pmsg
	head int
	// waiter is the processor parked in Recv on this queue, if any.
	waiter *EventProc
}

type pmsg struct {
	data    []Word
	arrival float64
}

func (q *pairQueue) empty() bool { return q.head == len(q.buf) }

func (q *pairQueue) push(m pmsg) { q.buf = append(q.buf, m) }

func (q *pairQueue) pop() pmsg {
	m := q.buf[q.head]
	q.buf[q.head] = pmsg{} // drop the payload reference
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

type yieldSignal struct {
	proc *EventProc
	done bool
}

// procHeap is the scheduler's priority queue of runnable processors,
// ordered by (resume clock, rank). The order is a fidelity choice —
// events fire in simulated-time order — not a correctness requirement;
// see the package comment.
type procHeap []*EventProc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].rank < h[j].rank
}
func (h procHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x any)   { *h = append(*h, x.(*EventProc)) }
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
func (m *EventMachine) wake(p *EventProc, key float64) {
	p.key = key
	if m.direct == nil && m.ready.Len() == 0 {
		m.direct = p
		return
	}
	if d := m.direct; d != nil {
		m.direct = nil
		heap.Push(&m.ready, d)
	}
	heap.Push(&m.ready, p)
}

// wakeWaiters deregisters and resumes every processor parked in Recv.
// Used to unwind after an abort or a detected deadlock: the woken
// processors observe abortFlag and panic with deadErr.
func (m *EventMachine) wakeWaiters() {
	for _, q := range m.queues {
		if w := q.waiter; w != nil {
			q.waiter = nil
			w.parked = false
			m.wake(w, w.clock)
		}
	}
}

// NewEvent creates a discrete-event machine over the given processor
// grid. It returns an error for invalid configurations (the same
// Config.Validate as New; ChanCap, though ignored here, is still
// checked so a config rejected by one runtime is rejected by both).
func NewEvent(g *grid.Grid, cfg Config) (*EventMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &EventMachine{
		grid:   g,
		cfg:    cfg,
		queues: make(map[int64]*pairQueue),
		yield:  make(chan yieldSignal),
	}, nil
}

// Grid returns the processor grid of the machine.
func (m *EventMachine) Grid() *grid.Grid { return m.grid }

// Config returns the machine configuration.
func (m *EventMachine) Config() Config { return m.cfg }

func (m *EventMachine) queue(src, dst int) *pairQueue {
	key := int64(src)*int64(m.grid.Size()) + int64(dst)
	q := m.queues[key]
	if q == nil {
		q = &pairQueue{}
		m.queues[key] = q
	}
	return q
}

// EventProc is the per-processor execution context of the event
// runtime. It implements Port, so the exec backend's SPMD bodies run
// on it unmodified. A EventProc must only be used from the body
// function it was handed to.
type EventProc struct {
	rank  int
	m     *EventMachine
	clock float64
	// key is the heap priority while runnable (the simulated time at
	// which the processor resumes).
	key float64
	// resume is the coroutine handoff: the scheduler signals it to let
	// this processor run.
	resume chan struct{}
	parked bool
	// counters — identical to Proc's.
	flops       int64
	messages    int64
	words       int64
	maxMsgWords int64
	pairs       PairTally
}

// Rank returns the linear rank of the processor.
func (p *EventProc) Rank() int { return p.rank }

// Coord returns the processor's coordinate in grid dimension d.
func (p *EventProc) Coord(d int) int { return p.m.grid.Coord(p.rank, d) }

// Grid returns the machine's processor grid.
func (p *EventProc) Grid() *grid.Grid { return p.m.grid }

// NumProcs returns the total number of processors.
func (p *EventProc) NumProcs() int { return p.m.grid.Size() }

// Clock returns the processor's current simulated time.
func (p *EventProc) Clock() float64 { return p.clock }

// noteSend records one counted outbound message, mirroring Proc.noteSend.
func (p *EventProc) noteSend(dst, words int) {
	p.messages++
	p.words += int64(words)
	if int64(words) > p.maxMsgWords {
		p.maxMsgWords = int64(words)
	}
	p.pairs.Note(dst, words)
}

// Compute advances the simulated clock by flops * Tf and counts the flops.
func (p *EventProc) Compute(flops int) {
	if flops < 0 {
		panic(fmt.Sprintf("machine: negative flop count %d on processor %d", flops, p.rank))
	}
	p.flops += int64(flops)
	before := p.clock
	p.clock += float64(flops) * p.m.cfg.Tf
	if tr := p.m.cfg.Tracer; tr != nil && p.clock > before {
		tr.Record(Event{Proc: p.rank, Kind: EvCompute, Start: before, End: p.clock, Peer: -1})
	}
}

// Send transmits a copy of data to the processor with the given rank.
// It never blocks: the pair queue is unbounded, and if the destination
// is parked waiting on this pair it becomes runnable at the arrival
// time. Clock pricing is the shared Config.SendTiming, identical to
// Proc.Send.
func (p *EventProc) Send(dst int, data []Word) {
	if dst < 0 || dst >= p.m.grid.Size() {
		panic(fmt.Sprintf("machine: Send to invalid rank %d", dst))
	}
	buf := append([]Word(nil), data...)
	var arrival float64
	if dst == p.rank {
		arrival = p.clock
	} else {
		before := p.clock
		p.clock, arrival = p.m.cfg.SendTiming(p.clock, len(data))
		p.noteSend(dst, len(data))
		if tr := p.m.cfg.Tracer; tr != nil && arrival > before {
			tr.Record(Event{Proc: p.rank, Kind: EvSend, Start: before, End: arrival, Peer: dst, Words: len(data)})
		}
	}
	q := p.m.queue(p.rank, dst)
	q.push(pmsg{data: buf, arrival: arrival})
	if w := q.waiter; w != nil {
		q.waiter = nil
		w.parked = false
		key := w.clock
		if arrival > key {
			key = arrival
		}
		p.m.wake(w, key)
	}
}

// Recv receives the next message from the processor with rank src. If
// the pair queue is empty the processor parks and the scheduler runs
// someone else; it resumes when a matching message is enqueued. The
// receiver's clock advances to at least the arrival time, exactly as
// in Proc.Recv.
func (p *EventProc) Recv(src int) []Word {
	if src < 0 || src >= p.m.grid.Size() {
		panic(fmt.Sprintf("machine: Recv from invalid rank %d", src))
	}
	q := p.m.queue(src, p.rank)
	for q.empty() {
		if p.m.abortFlag {
			panic(deadErr)
		}
		q.waiter = p
		p.park()
	}
	msg := q.pop()
	if msg.arrival > p.clock {
		if tr := p.m.cfg.Tracer; tr != nil {
			tr.Record(Event{Proc: p.rank, Kind: EvWait, Start: p.clock, End: msg.arrival, Peer: src})
		}
		p.clock = msg.arrival
	}
	return msg.data
}

// park hands control back to the scheduler and blocks until resumed.
func (p *EventProc) park() {
	p.parked = true
	p.m.yield <- yieldSignal{proc: p}
	<-p.resume
	if p.m.abortFlag {
		panic(deadErr)
	}
}

// SendValue sends a single word.
func (p *EventProc) SendValue(dst int, v Word) { p.Send(dst, []Word{v}) }

// RecvValue receives a single word, panicking if the message length is
// not 1 (a protocol error in the SPMD program).
func (p *EventProc) RecvValue(src int) Word {
	d := p.Recv(src)
	if len(d) != 1 {
		panic(fmt.Sprintf("machine: RecvValue got message of %d words", len(d)))
	}
	return d[0]
}

// Note records a custom trace event spanning [start, end] on this
// processor if a tracer is attached.
func (p *EventProc) Note(kind EventKind, start, end float64, peer, words int) {
	if tr := p.m.cfg.Tracer; tr != nil && end > start {
		tr.Record(Event{Proc: p.rank, Kind: kind, Start: start, End: end, Peer: peer, Words: words})
	}
}

// resumeOne hands the coroutine to p and blocks until it yields,
// reporting whether it finished.
func (m *EventMachine) resumeOne(p *EventProc) (done bool) {
	p.resume <- struct{}{}
	sig := <-m.yield
	if sig.done && m.abortFlag {
		// Unwind parked processors so their goroutines exit; any
		// still-runnable processor keeps running and fails when it
		// next needs a message, mirroring the dead-channel abort.
		m.wakeWaiters()
	}
	return sig.done
}

// DirectHandoffs reports how many scheduler steps took the
// single-runnable fast path instead of the heap. Meaningful after Run;
// purely observability.
func (m *EventMachine) DirectHandoffs() int64 { return m.directHandoffs }

// Run executes the SPMD body on all processors under the event
// scheduler and returns aggregate statistics, with the same error
// discipline as Machine.Run: the lowest-ranked root-cause error wins,
// processors unwound by a peer's failure are filtered. A machine must
// not be reused after Run returns.
//
// Processors are goroutines only as a coroutine mechanism — exactly
// one is runnable at any moment, chosen from the ready heap by
// smallest (resume time, rank). A processor runs until it parks in
// Recv on an empty queue or finishes; there is no preemption and no
// concurrent execution, which is what makes the runtime's memory
// profile flat and its wall-clock free of scheduling contention.
func (m *EventMachine) Run(body func(p *EventProc)) (Stats, error) {
	n := m.grid.Size()
	procs := make([]*EventProc, n)
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		p := &EventProc{rank: r, m: m, resume: make(chan struct{})}
		procs[r] = p
		go func() {
			<-p.resume
			defer func() {
				done := yieldSignal{proc: p, done: true}
				if rec := recover(); rec != nil {
					if !secondaryPanic(rec) {
						errs[p.rank] = fmt.Errorf("machine: processor %d panicked: %v", p.rank, rec)
					}
					m.abortFlag = true
				}
				m.yield <- done
			}()
			body(p)
		}()
		m.wake(p, 0)
	}
	live := n
	var batch []*EventProc
	for live > 0 {
		if m.ready.Len() == 0 && m.direct == nil {
			// Every live processor is parked in Recv and no message can
			// ever arrive: the schedule deadlocked. The goroutine runtime
			// would hang here; the event scheduler can see the whole
			// machine state, so it reports it. Resume everyone to unwind
			// (a parked processor is always registered as some queue's
			// waiter; clearing the registration here keeps the abort scan
			// below from waking it a second time after it has exited).
			m.abortFlag = true
			m.deadlocked = true
			m.wakeWaiters()
		}
		// One runnable processor: hand it the coroutine directly, no
		// heap traffic at all. This is every strictly-serial stretch of
		// a schedule — pipelined wavefronts, ping-pong exchanges — where
		// the heap would otherwise be a push immediately followed by a
		// pop of the same element.
		if p := m.direct; p != nil {
			m.direct = nil
			m.directHandoffs++
			if m.resumeOne(p) {
				live--
			}
			continue
		}
		// Drain every entry sharing the front's resume clock in one
		// batch — the heap's rank tie-break hands them out in ascending
		// rank — instead of one pop-resume round trip per message
		// arrival. Synchronized schedules (epoch flushes, collective
		// rounds) wake whole waves of processors at the same simulated
		// time, so batching removes most of the per-arrival heap churn.
		// A processor woken mid-batch at the same clock simply lands in
		// the next batch; the scheduler order is a fidelity choice, not
		// a correctness requirement (see the package comment).
		batch = batch[:0]
		front := heap.Pop(&m.ready).(*EventProc)
		batch = append(batch, front)
		for m.ready.Len() > 0 && m.ready[0].key == front.key {
			batch = append(batch, heap.Pop(&m.ready).(*EventProc))
		}
		for _, p := range batch {
			if m.resumeOne(p) {
				live--
			}
		}
	}
	var st Stats
	st.PerProc = make([]ProcStats, n)
	for r, p := range procs {
		st.PerProc[r] = ProcStats{Clock: p.clock, Flops: p.flops, Messages: p.messages, Words: p.words, MaxMsgWords: p.maxMsgWords,
			Peers: p.pairs.Snapshot()}
		st.AddProc(st.PerProc[r])
	}
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	if m.deadlocked {
		return st, fmt.Errorf("machine: deadlock: all processors blocked in Recv")
	}
	if m.abortFlag {
		return st, fmt.Errorf("machine: run aborted")
	}
	return st, nil
}
