// Package lockflow seeds the three path-sensitive lock defects — a
// branch that leaks the lock, a definite double-lock, a definite
// unlock-of-free — the deferred Lock typo and Add after Wait, plus
// the maybe-states and deferred shapes that must stay silent.
package lockflow

import "sync"

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	m  map[string]int
}

func work() {}

// BranchLeak unlocks on the early-return path only: the fall-through
// return leaves the mutex held. Reported at the Lock.
func (s *store) BranchLeak(key string) int {
	s.mu.Lock()
	if v, ok := s.m[key]; ok {
		s.mu.Unlock()
		return v
	}
	return -1
}

// DoubleLock re-locks a mutex that is definitely held on the branch:
// self-deadlock.
func (s *store) DoubleLock(again bool) {
	s.mu.Lock()
	if again {
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// UnlockFree releases a mutex no path has locked: runtime fatal.
func (s *store) UnlockFree() {
	s.mu.Unlock()
}

// Correlated guards the lock and the unlock with the same condition.
// The solver sees maybe-held at the join; maybe must stay silent.
func (s *store) Correlated(cond bool) {
	if cond {
		s.mu.Lock()
	}
	work()
	if cond {
		s.mu.Unlock()
	}
}

// DeferCovered is the canonical clean shape.
func (s *store) DeferCovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ClosureCovered defers the unlock inside a closure; it still covers
// every exit path.
func (s *store) ClosureCovered() int {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	return len(s.m)
}

// ReadersAllowed takes the read lock twice: legal for RWMutex readers,
// no double-lock report.
func (s *store) ReadersAllowed() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.rw.RLock()
	n := len(s.m)
	s.rw.RUnlock()
	return n
}

// WriteSideLeak pairs nothing on the early-return path: the write lock
// is held when flush is true. Reported at the Lock.
func (s *store) WriteSideLeak(flush bool) {
	s.rw.Lock()
	if flush {
		return
	}
	s.rw.Unlock()
}

// LoopBalanced locks and unlocks every iteration: clean across the
// back edge.
func (s *store) LoopBalanced(keys []string) {
	for range keys {
		s.mu.Lock()
		work()
		s.mu.Unlock()
	}
}

// DeferTypo acquires on exit instead of releasing.
func (s *store) DeferTypo() {
	defer s.mu.Lock()
	work()
}

// AddAfterWait races the Wait it may already have released.
func AddAfterWait(wg *sync.WaitGroup) {
	wg.Wait()
	wg.Add(1)
}

// AddBeforeWait is the canonical clean order.
func AddBeforeWait(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// ReadMismatch pairs RLock with Unlock instead of RUnlock.
func (s *store) ReadMismatch() {
	s.rw.RLock()
	work()
	s.rw.Unlock()
}
