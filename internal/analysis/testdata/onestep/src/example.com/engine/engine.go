// Package engine drives the search from outside bb: through the step it
// is clean, through the kernel methods it is a copied loop.
package engine

import "evotree/internal/bb"

func viaStep(p *bb.Problem) int {
	s := &bb.Step{P: p}
	return len(s.Run(p.Root(), 10))
}

func copiedLoop(p *bb.Problem) int {
	stack := []*bb.PNode{p.Root()}
	n := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.PropagatedLB(v) >= 10 { // want `\(\*bb\.Problem\)\.PropagatedLB outside bb\.Step`
			continue
		}
		stack = append(stack, p.Expand(v, 10)...) // want `\(\*bb\.Problem\)\.Expand outside bb\.Step`
		n++
	}
	return n
}

// A method value or expression is a reference to the kernel too.
func methodValues(p *bb.Problem) {
	expand := p.Expand                      // want `\(\*bb\.Problem\)\.Expand outside bb\.Step`
	propagate := (*bb.Problem).PropagatedLB // want `\(\*bb\.Problem\)\.PropagatedLB outside bb\.Step`
	_, _ = expand, propagate
}

// problem is another type whose methods share the kernel's names.
type problem struct{}

func (problem) Expand() int { return 0 }

func unrelated(q problem) int { return q.Expand() }
