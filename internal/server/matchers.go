package server

import (
	"runtime"
	"sync"

	"stsmatch/internal/core"
	"stsmatch/internal/store"
)

// matcherSet lends a server's matchers over its live database, the one
// returned last lent first. A matcher keeps its last threshold retrieval
// and its recent top-k answers, so a repeated request finds them only on
// a matcher that outlives garbage collection (a sync.Pool drops its
// items at every one) and that is lent again soon (a queue would rotate
// through them all). Lending never waits: with none free, get makes a
// matcher, and put keeps at most GOMAXPROCS free, dropping the rest. A
// caller returns the matcher once its search is done, before it writes
// the answer, so a client slow to read holds none. Neither lending nor
// returning takes s.mu.
type matcherSet struct {
	db     *store.DB
	params core.Params
	keep   int // the most matchers kept free
	mu     sync.Mutex
	free   []*core.Matcher // the last one returned on top
}

// newMatcherSet makes the set; params must be valid and db non-nil,
// which is all core.NewMatcher checks.
func newMatcherSet(db *store.DB, params core.Params) *matcherSet {
	return &matcherSet{db: db, params: params, keep: runtime.GOMAXPROCS(0)}
}

// get lends the matcher returned last, or a new one if none is free.
func (ms *matcherSet) get() *core.Matcher {
	ms.mu.Lock()
	if n := len(ms.free); n > 0 {
		m := ms.free[n-1]
		ms.free = ms.free[:n-1]
		ms.mu.Unlock()
		return m
	}
	ms.mu.Unlock()
	m, _ := core.NewMatcher(ms.db, ms.params) // cannot fail: see newMatcherSet
	return m
}

// put returns a matcher get lent; one beyond the set's size is dropped.
func (ms *matcherSet) put(m *core.Matcher) {
	ms.mu.Lock()
	if len(ms.free) < ms.keep {
		ms.free = append(ms.free, m)
	}
	ms.mu.Unlock()
}
