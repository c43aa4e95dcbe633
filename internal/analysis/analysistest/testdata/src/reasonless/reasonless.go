// Package reasonless waives a whole-program finding without saying why.
package reasonless

import "sync"

type server struct {
	mu sync.Mutex
	ch chan int
}

func (s *server) notifyLocked() {
	s.mu.Lock()
	//lint:allow lockorder
	s.ch <- 1
	s.mu.Unlock()
}
