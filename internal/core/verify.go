package core

import "fmt"

// Self-verification of the strategies' index structures, run after every
// UpdateIndex when Config.CheckInvariants is set. A violation panics: by the
// Strategy contract the index is single-writer, so a broken invariant means a
// bug in the strategy itself, not bad input, and continuing would silently
// corrupt prioritization order.

// verify checks I-PCS's single bounded queue: interval-heap order and the
// capacity bound.
func (s *IPCS) verify() {
	if err := s.index.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PCS index invariant violated: %v", err))
	}
}

// verify checks I-PBS's paired block indexes: CI and PI must track exactly
// the same active blocks, CI counts must be non-negative (a singleton block
// legitimately contributes 0), PI lists must be non-empty, and both the
// comparison queue and the lazy min-heap must satisfy their heap orders.
func (s *IPBS) verify() {
	if len(s.ci) != len(s.pi) {
		panic(fmt.Sprintf("core: I-PBS CI tracks %d blocks but PI %d", len(s.ci), len(s.pi)))
	}
	for sym, count := range s.ci {
		if count < 0 {
			panic(fmt.Sprintf("core: I-PBS CI count for block symbol %d is negative: %d", sym, count))
		}
		if len(s.pi[sym]) == 0 {
			panic(fmt.Sprintf("core: I-PBS block symbol %d active in CI but has no PI profiles", sym))
		}
	}
	if err := s.index.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PBS index invariant violated: %v", err))
	}
	if err := s.minHeap.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PBS min-heap invariant violated: %v", err))
	}
}

// verify checks I-SN's single bounded queue, as for I-PCS.
func (s *ISN) verify() {
	if err := s.queue.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-SN index invariant violated: %v", err))
	}
}

// verify checks I-PES's triple index: the pending counter must equal the
// comparisons actually held across E_PQ and PQ (the counter gates the
// fallback scan, so drift either starves or floods the matcher), every
// queue must satisfy its heap order, and every entity with a non-empty
// queue must be on the active list exactly once, with its listed flag in
// agreement (an unlisted entity's work would never be refilled).
func (s *IPES) verify() {
	onList := make(map[int]bool, len(s.active))
	for _, id := range s.active {
		if onList[id] {
			panic(fmt.Sprintf("core: I-PES entity %d is on the active list twice", id))
		}
		onList[id] = true
		if _, ok := s.epq[id]; !ok {
			panic(fmt.Sprintf("core: I-PES entity %d is on the active list but not in E_PQ", id))
		}
	}
	held := s.pq.Len()
	for id, st := range s.epq {
		if err := st.q.Verify(); err != nil {
			panic(fmt.Sprintf("core: I-PES entity %d queue invariant violated: %v", id, err))
		}
		if st.listed != onList[id] {
			panic(fmt.Sprintf("core: I-PES entity %d listed=%v disagrees with active-list membership", id, st.listed))
		}
		if st.q.Len() > 0 && !st.listed {
			panic(fmt.Sprintf("core: I-PES entity %d holds %d comparisons but is not on the active list", id, st.q.Len()))
		}
		held += st.q.Len()
	}
	if held != s.pending {
		panic(fmt.Sprintf("core: I-PES pending counter %d but %d comparisons held in E_PQ+PQ", s.pending, held))
	}
	if err := s.pq.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PES PQ invariant violated: %v", err))
	}
	if err := s.entityQueue.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PES entity queue invariant violated: %v", err))
	}
}
