package health

import (
	"strconv"

	"repro/internal/serve"
)

// stateValue encodes a State for the health_cell_state / health_rule_state
// gauges: 0 ok, 1 degraded, 2 breached.
func stateValue(s State) float64 { return float64(s.severity()) }

// actionValue encodes the advisor plan for the health_autoscale_plan
// gauge: 0 none, 1 scale_up, -1 scale_down.
func actionValue(a Action) float64 {
	switch a {
	case ActionScaleUp:
		return 1
	case ActionScaleDown:
		return -1
	}
	return 0
}

// WritePrometheus emits the health_* series: per-cell and per-rule state
// gauges, per-cell window aggregates, lifecycle counters, and the advisor
// plan.
func (e *Evaluator) WritePrometheus(pw *serve.PromWriter) {
	h := e.Health()
	plan := e.Plan()

	pw.Counter("health_ticks_total", "Evaluator ticks observed.", "", float64(h.Ticks))
	pw.Counter("health_transitions_total", "SLO state transitions across all cells and rules.", "", float64(h.Transitions))
	pw.Counter("health_alerts_total", "Alert events ever appended to the ring.", "", float64(h.AlertsTotal))
	pw.Counter("health_alerts_dropped_total", "Alert events evicted from the bounded ring.", "", float64(e.AlertsDropped()))
	pw.Counter("health_autoscale_actions_total", "Autoscale actions enacted.", `action="scale_up"`, float64(e.scaleUps.Load()))
	pw.Counter("health_autoscale_actions_total", "Autoscale actions enacted.", `action="scale_down"`, float64(e.scaleDowns.Load()))
	pw.Counter("health_events_total", "Control-plane lifecycle events recorded.", `kind="crash"`, float64(e.crashEvents.Load()))
	pw.Counter("health_events_total", "Control-plane lifecycle events recorded.", `kind="profile"`, float64(e.profileEvents.Load()))
	pw.Gauge("health_status", "Worst cell state: 0 ok, 1 degraded, 2 breached.", "", stateValue(h.Status))
	pw.Gauge("health_cells", "Cells under health observation.", "", float64(len(h.Cells)))
	pw.Gauge("health_autoscale_plan", "Advisor recommendation: 0 none, 1 scale_up, -1 scale_down.", "", actionValue(plan.Action))

	breached := 0
	var resets int64
	for _, c := range h.Cells {
		if c.State == StateBreached {
			breached++
		}
		resets += c.Window.CounterResets
		cl := `cell="` + strconv.Itoa(c.Cell) + `"`
		pw.Gauge("health_cell_state", "Per-cell worst rule state: 0 ok, 1 degraded, 2 breached.", cl, stateValue(c.State))
		pw.Gauge("health_window_request_rate", "Rolling-window request rate per second.", cl, c.Window.RequestRate)
		pw.Gauge("health_window_error_rate", "Rolling-window error fraction.", cl, c.Window.ErrorRate)
		pw.Gauge("health_window_cache_hit_rate", "Rolling-window cache hit fraction.", cl, c.Window.CacheHitRate)
		pw.Gauge("health_window_queue_wait_seconds", "Worst per-tick queue-wait quantile in the window.", cl+`,quantile="0.99"`, c.Window.QueueWaitP99)
		pw.Gauge("health_window_solve_seconds", "Worst per-tick solve quantile in the window.", cl+`,quantile="0.99"`, c.Window.SolveP99)
		pw.Gauge("health_window_queue_depth", "Latest instantaneous queue depth.", cl, float64(c.Window.QueueDepth))
		for _, r := range c.Rules {
			rl := cl + `,rule="` + r.Rule + `"`
			pw.Gauge("health_rule_state", "Per-rule state: 0 ok, 1 degraded, 2 breached.", rl, stateValue(r.State))
		}
	}
	pw.Gauge("health_breached_cells", "Cells currently in the breached state.", "", float64(breached))
	pw.Counter("health_counter_resets_total", "Cumulative-counter resets detected (cell restarts).", "", float64(resets))

	if h.Runtime != nil {
		for _, r := range h.Runtime.Rules {
			rl := `cell="process",rule="` + r.Rule + `"`
			pw.Gauge("health_rule_state", "Per-rule state: 0 ok, 1 degraded, 2 breached.", rl, stateValue(r.State))
		}
	}
}
