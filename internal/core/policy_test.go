package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"dptrace/internal/noise"
)

func TestAnalystPolicyPerAnalystCap(t *testing.T) {
	p := NewAnalystPolicy(math.Inf(1), 1.0)
	alice := p.AgentFor("alice")
	if err := alice.Apply(0.8); err != nil {
		t.Fatal(err)
	}
	if err := alice.Apply(0.3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-cap apply: %v", err)
	}
	// Bob has his own cap.
	if err := p.AgentFor("bob").Apply(0.8); err != nil {
		t.Fatalf("bob blocked by alice's spending: %v", err)
	}
	if got := p.SpentBy("alice"); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("alice spent %v", got)
	}
	if got := p.TotalSpent(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("total spent %v, want 1.6 (composition adds)", got)
	}
}

func TestAnalystPolicySharedTotal(t *testing.T) {
	p := NewAnalystPolicy(1.0, math.Inf(1))
	if err := p.AgentFor("alice").Apply(0.7); err != nil {
		t.Fatal(err)
	}
	// Bob is personally unconstrained but the shared total refuses.
	if err := p.AgentFor("bob").Apply(0.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("shared total not enforced: %v", err)
	}
	// The refusal must not have consumed bob's personal budget.
	if got := p.SpentBy("bob"); got != 0 {
		t.Errorf("bob spent %v after refusal", got)
	}
	if err := p.AgentFor("bob").Apply(0.3); err != nil {
		t.Fatalf("within-total apply refused: %v", err)
	}
}

func TestAnalystPolicyRemainingFor(t *testing.T) {
	p := NewAnalystPolicy(1.0, 0.6)
	_ = p.AgentFor("alice").Apply(0.5)
	// Alice personally has 0.1 left; shared has 0.5: min is 0.1.
	if got := p.RemainingFor("alice"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("alice remaining %v, want 0.1", got)
	}
	// Bob has 0.6 cap but shared only 0.5.
	if got := p.RemainingFor("bob"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("bob remaining %v, want 0.5", got)
	}
}

func TestAnalystPolicyAgentStability(t *testing.T) {
	// The same analyst's agent must draw from the same cap across
	// AgentFor calls.
	p := NewAnalystPolicy(math.Inf(1), 1.0)
	if err := p.AgentFor("carol").Apply(0.6); err != nil {
		t.Fatal(err)
	}
	if err := p.AgentFor("carol").Apply(0.6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second handle forgot prior spending: %v", err)
	}
}

func TestAnalystPolicyConcurrent(t *testing.T) {
	p := NewAnalystPolicy(math.Inf(1), math.Inf(1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a := p.AgentFor(string(rune('a' + id%3)))
			for j := 0; j < 100; j++ {
				if err := a.Apply(0.01); err != nil {
					t.Errorf("concurrent apply: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := p.TotalSpent(); math.Abs(got-8) > 1e-6 {
		t.Errorf("total spent %v, want 8", got)
	}
}

func TestNewQueryableForUsesPolicyAgent(t *testing.T) {
	p := NewAnalystPolicy(math.Inf(1), 0.5)
	q := NewQueryableFor([]int{1, 2, 3}, p.AgentFor("dave"), noise.NewSeededSource(1, 2))
	if _, err := q.NoisyCount(0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NoisyCount(0.4); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("policy cap not enforced through Queryable: %v", err)
	}
	if got := p.SpentBy("dave"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("dave spent %v", got)
	}
}
