// Package admit is a boundedgo fixture for the admission package: it is
// in scope wholesale, like serve.
package admit

// Gate stands in for a family's admission gate.
type Gate struct {
	slots chan struct{}
}

// Watch launches a goroutine per call with no admission guard.
func (g *Gate) Watch(f func()) {
	go f() // want "naked goroutine launch"
}

// Expire launches per waiting request: the fan-out bug shape.
func (g *Gate) Expire(waiting []func()) {
	for _, w := range waiting {
		go w() // want "goroutine launched per ranged element"
	}
}

// Run takes a slot before launching the solve.
func (g *Gate) Run(f func()) {
	g.slots <- struct{}{}
	go func() {
		defer func() { <-g.slots }()
		f()
	}()
}
