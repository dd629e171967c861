package server

import (
	"context"
	"sync"
)

func work() {}

// Server mirrors the production lifecycle surface.
type Server struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// spin runs forever with no rendezvous — the classic leak.
func (s *Server) spin() {
	for {
		work()
	}
}

// startLeak spawns a goroutine nothing can stop.
func (s *Server) startLeak() {
	go s.spin() // want "no provable shutdown path"
}

// startLeakLit is the closure variant of the same leak.
func (s *Server) startLeakLit() {
	go func() { // want "no provable shutdown path"
		for {
			work()
		}
	}()
}

// startDynamic spawns a function value; the target is unresolvable, so
// it needs an annotation.
func (s *Server) startDynamic(fn func()) {
	go fn() // want "no provable shutdown path"
}

// loop selects on the stop channel: proof 1.
func (s *Server) loop() {
	for {
		select {
		case <-s.stop:
			return
		default:
			work()
		}
	}
}

func (s *Server) startLoop() {
	go s.loop()
}

// startWorker joins a WaitGroup: proof 2.
func (s *Server) startWorker() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		work()
	}()
}

// startWaiter is the Wait-then-close pattern: proof 2.
func (s *Server) startWaiter(done chan struct{}) {
	go func() {
		s.wg.Wait()
		close(done)
	}()
}

// run blocks on the context: proof 1 via ctx.Done receive.
func (s *Server) run(ctx context.Context) { <-ctx.Done() }

// startCtx hands the spawned call a context: proof 3.
func (s *Server) startCtx(ctx context.Context) {
	go s.run(ctx)
}

// startFreshRoot hands the spawned call a context nothing can cancel:
// no proof.
func (s *Server) startFreshRoot() {
	go s.spinCtx(context.Background()) // want "no provable shutdown path"
}

// startFreshRootLit passes a fresh root into a call inside the body:
// no proof either.
func (s *Server) startFreshRootLit() {
	go func() { // want "no provable shutdown path"
		s.spinCtx(context.TODO())
	}()
}

// spinCtx takes a context and ignores it.
func (s *Server) spinCtx(context.Context) {
	for {
		work()
	}
}

// startForward forwards the context into a call inside the body:
// proof 3.
func (s *Server) startForward(ctx context.Context) {
	go func() {
		s.run(ctx)
	}()
}

// startDrain ranges over a channel: proof 1.
func (s *Server) startDrain(ch chan int) {
	go func() {
		for range ch {
		}
	}()
}

// startNested finds the proof through a statically reachable callee.
func (s *Server) helper() { s.loop() }

func (s *Server) startNested() {
	go s.helper()
}

// startOwned documents the lifecycle owner instead: proof 4.
func (s *Server) startOwned() {
	//cavet:owner server.Server Close unblocks the serve loop at drain
	go s.spin()
}
