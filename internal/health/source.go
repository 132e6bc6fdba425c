package health

import (
	"repro/internal/cluster"
	"repro/internal/serve"
)

// sampleFrom maps one cell's serve.Snapshot onto the evaluator's raw
// reading.
func sampleFrom(cell int, s serve.Snapshot) CellSample {
	return CellSample{
		Cell:         cell,
		Requests:     s.Requests,
		Errors:       s.Errors,
		Hits:         s.Hits,
		Misses:       s.Misses,
		QueueWaitP50: s.QueueWaitP50,
		QueueWaitP99: s.QueueWaitP99,
		SolveP50:     s.SolveP50,
		SolveP99:     s.SolveP99,
		QueueDepth:   s.QueueLen + s.BulkQueueLen,
	}
}

// routerSource samples every live cell of a cluster router. Membership
// changes show up as cells appearing/disappearing between ticks, which
// the evaluator records as membership alerts.
type routerSource struct{ r *cluster.Router }

// RouterSource adapts a cluster router into an evaluator Source.
func RouterSource(r *cluster.Router) Source { return routerSource{r: r} }

func (rs routerSource) Sample() []CellSample {
	ids := rs.r.CellIDs()
	out := make([]CellSample, 0, len(ids))
	for _, id := range ids {
		c, ok := rs.r.CellServer(id)
		if !ok { // raced a removal
			continue
		}
		out = append(out, sampleFrom(id, c.Stats()))
	}
	return out
}

// serverSource samples one standalone server as cell 0, giving flserved
// the same health surface as the cluster.
type serverSource struct{ s *serve.Server }

// ServerSource adapts a single serve.Server into an evaluator Source.
func ServerSource(s *serve.Server) Source { return serverSource{s: s} }

func (ss serverSource) Sample() []CellSample {
	return []CellSample{sampleFrom(0, ss.s.Stats())}
}
