package main

import (
	"testing"

	"ccperf/internal/autoscale"
)

// TestBudgetGate: the realized spend is gated against the hourly budget
// pro-rated over the wall clock with 5% slack; no autoscaler or a zero
// budget means no gate.
func TestBudgetGate(t *testing.T) {
	// $3.60/h over 10 s allows $0.01, and $0.0105 with the slack.
	rows := []struct {
		name    string
		status  *autoscale.Status
		budget  float64
		wantErr bool
	}{
		{"within budget", &autoscale.Status{Cost: 0.0100}, 3.6, false},
		{"inside the slack", &autoscale.Status{Cost: 0.0104}, 3.6, false},
		{"over budget", &autoscale.Status{Cost: 0.0110}, 3.6, true},
		{"budget 0 means no gate", &autoscale.Status{Cost: 100}, 0, false},
		{"no autoscaler means no gate", nil, 3.6, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := budgetGate(row.status, row.budget, 10)
			if (err != nil) != row.wantErr {
				t.Fatalf("budgetGate = %v, want error %v", err, row.wantErr)
			}
		})
	}
}
