package sched

// ModFactoring implements the paper's modified factoring algorithm
// (§2.3): factoring's phase structure, but during each phase processor i
// claims the i-th chunk of the phase rather than the chunk at the front
// of the queue. If the i-th chunk is already gone, an idle processor
// takes the first chunk still available. Selecting the same chunk every
// time a loop executes preserves affinity; the price is that every
// access still goes through the central queue.
//
// ModFactoring is not a Sizer because the chunk chosen depends on the
// caller's processor id. Engines call Claim under the central queue's
// mutual exclusion.
type ModFactoring struct {
	p         int
	remaining int
	nextLo    int
	board     []Chunk // current phase's chunks, indexed by processor; empty = taken
	avail     int     // non-empty entries in board
}

// NewModFactoring returns a policy instance; Init must be called before
// each loop execution.
func NewModFactoring() *ModFactoring { return &ModFactoring{} }

// Name returns the display name.
func (m *ModFactoring) Name() string { return "MOD-FACTORING" }

// Init prepares one execution of a loop of n iterations on p processors,
// reusing the board's storage when it is large enough.
func (m *ModFactoring) Init(n, p int) {
	if p < 1 {
		p = 1
	}
	m.p = p
	m.remaining = n
	m.nextLo = 0
	if cap(m.board) < p {
		m.board = make([]Chunk, p)
	}
	m.board = m.board[:p]
	clear(m.board)
	m.avail = 0
}

// newPhase splits half of the remaining iterations into p equal chunks,
// exactly as factoring does, and lays them on the board.
func (m *ModFactoring) newPhase() {
	size := CeilDiv(m.remaining, 2*m.p)
	if size < 1 {
		size = 1
	}
	for i := 0; i < m.p; i++ {
		if m.remaining == 0 {
			m.board[i] = Chunk{}
			continue
		}
		take := size
		if take > m.remaining {
			take = m.remaining
		}
		m.board[i] = Chunk{m.nextLo, m.nextLo + take}
		m.nextLo += take
		m.remaining -= take
		m.avail++
	}
}

// Claim returns the next chunk for processor proc, or ok=false when the
// loop is exhausted. Processor proc prefers the proc-th chunk of the
// current phase; if that chunk is taken it receives the first available
// chunk (losing affinity for those iterations, as §2.3 concedes).
func (m *ModFactoring) Claim(proc int) (Chunk, bool) {
	if m.avail == 0 {
		if m.remaining == 0 {
			return Chunk{}, false
		}
		m.newPhase()
		if m.avail == 0 {
			return Chunk{}, false
		}
	}
	if proc >= 0 && proc < m.p && !m.board[proc].Empty() {
		c := m.board[proc]
		m.board[proc] = Chunk{}
		m.avail--
		return c, true
	}
	for i := 0; i < m.p; i++ {
		if !m.board[i].Empty() {
			c := m.board[i]
			m.board[i] = Chunk{}
			m.avail--
			return c, true
		}
	}
	return Chunk{}, false
}

// Done reports whether all iterations have been claimed.
func (m *ModFactoring) Done() bool { return m.avail == 0 && m.remaining == 0 }
