// Package suite assembles the module's full analyzer set. It exists so
// cmd/cavet and the repo self-check test run exactly the same checks —
// an analyzer added here is enforced everywhere at once.
package suite

import (
	"cacheautomaton/internal/analysis"
	"cacheautomaton/internal/analysis/atomicmix"
	"cacheautomaton/internal/analysis/ctxpropagate"
	"cacheautomaton/internal/analysis/errdrop"
	"cacheautomaton/internal/analysis/goroutinelife"
	"cacheautomaton/internal/analysis/lockorder"
	"cacheautomaton/internal/analysis/metricname"
	"cacheautomaton/internal/analysis/seamcover"
	"cacheautomaton/internal/analysis/singleattempt"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer(),
		ctxpropagate.Analyzer(),
		errdrop.Analyzer(),
		atomicmix.Analyzer(),
		metricname.Analyzer(),
		goroutinelife.Analyzer(),
		singleattempt.Analyzer(),
		seamcover.Analyzer(),
	}
}
