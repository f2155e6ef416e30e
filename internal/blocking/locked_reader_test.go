package blocking

import (
	"pier/internal/intern"
	"pier/internal/profile"
)

// This file is the locked read path the lock-free snapshots replaced: every
// call copies state under regMu and the shard mutexes. It ships in no binary;
// it is the oracle TestSnapshotMatchesLockedReader holds each published
// snapshot to.

// lockedReader reads a collection through its locks, copying on every call.
type lockedReader struct{ c *Collection }

// LockedReader returns the mutex-guarded per-call reader. It is always valid,
// published snapshot or not.
func (c *Collection) LockedReader() lockedReader { return lockedReader{c} }

func (r lockedReader) AppendPostings(buf []*Posting, syms []intern.Sym) []*Posting {
	for _, sym := range syms {
		sh := r.c.shardOf(sym)
		sh.mu.Lock()
		if b, ok := r.c.getBlock(sym); ok {
			buf = append(buf, &Posting{
				Sym: sym,
				Key: b.Key,
				A:   append([]int(nil), b.A...),
				B:   append([]int(nil), b.B...),
			})
		}
		sh.mu.Unlock()
	}
	return buf
}

func (r lockedReader) NumBlocks() int                  { return r.c.ProbeNumBlocks() }
func (r lockedReader) NumBlocksOf(id int) int          { return r.c.ProbeNumBlocksOf(id) }
func (r lockedReader) Profile(id int) *profile.Profile { return r.c.ProbeProfile(id) }

// ProbeProfile returns the registered profile with the given ID, or nil if
// it is unknown or was evicted, read under regMu.
func (c *Collection) ProbeProfile(id int) *profile.Profile {
	c.regMu.RLock()
	p := c.profiles[id]
	c.regMu.RUnlock()
	return p
}

// ProbeNumBlocks counts the live blocks under the shard locks.
func (c *Collection) ProbeNumBlocks() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += c.store.Len(i)
		sh.mu.Unlock()
	}
	return n
}

// ProbeNumBlocksOf counts the live blocks containing profile id, read under
// regMu and the shard locks.
func (c *Collection) ProbeNumBlocksOf(id int) int {
	c.regMu.RLock()
	syms := append([]intern.Sym(nil), c.ofProf[id]...)
	c.regMu.RUnlock()
	n := 0
	for _, sym := range syms {
		sh := c.shardOf(sym)
		sh.mu.Lock()
		if c.hasBlock(sym) {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}
