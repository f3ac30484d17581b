package main

import (
	"fmt"
	"time"
)

// workloadMetrics are the per-layer metrics that exist on one workload
// only, so BENCHMARK.json cannot require them of every traced run; they go
// to the results file and the printed table.
var workloadMetrics = map[string][]string{
	"bulk": {
		"segment.speedup.DS9", "segment.speedup.PRO", "segment.speedup.RG1",
		"segment.stitch_ratio.DS9", "segment.stitch_ratio.PRO", "segment.stitch_ratio.RG1",
		"segment.fallbacks.DS9", "segment.fallbacks.PRO", "segment.fallbacks.RG1",
	},
	"flows": {
		"lazydfa.hit_rate", "lazydfa.misses_per_mb", "lazydfa.flushes", "lazydfa.fallbacks",
		"imfant.stream_write_p50_us", "imfant.stream_flush_p50_us", "imfant.close_p50_us",
		"imfant.write_p99_during_swap_us", "imfant.write_p99_idle_us",
	},
}

// runSmoke runs every workload untraced and traced at tiny sizes and fails
// unless no operation failed and every metric the contract and
// workloadMetrics name was emitted.
func runSmoke(c *contract) error {
	var problems []string
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := newRun(name, 1, time.Second, traced, smokeSizes)
			if err := execute(r, newWorkload(name)); err != nil {
				return fmt.Errorf("smoke %s: %w", name, err)
			}
			names := c.EndToEnd
			if traced {
				names = append([]contractMetric(nil), c.PerLayer...)
				for _, m := range workloadMetrics[name] {
					names = append(names, contractMetric{Name: m, Unit: r.metrics[m].Unit})
				}
				// Only block scans record per-strategy stages (streams record
				// stream_write, CountParallel records parallel), so packets
				// alone must time every strategy it uses.
				for _, s := range strategyNames {
					if name == "packets" && r.metrics["strategy."+s+".byte_share"].Value > 0 {
						names = append(names, contractMetric{Name: "strategy." + s + ".p50_us", Unit: "us"})
					}
				}
			}
			if _, err := resultLine(r, names); err != nil {
				problems = append(problems, err.Error())
			}
			if r.failed != 0 || r.attempted == 0 {
				problems = append(problems, fmt.Sprintf("%s traced=%v: %d of %d operations failed: %v", name, traced, r.failed, r.attempted, r.failures))
			}
			fmt.Printf("smoke %-8s traced=%-5v attempted=%d failed=%d metrics=%d\n", name, traced, r.attempted, r.failed, len(r.metrics))
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("smoke FAIL:", p)
		}
		return fmt.Errorf("smoke: %d problems", len(problems))
	}
	fmt.Println("smoke ok")
	return nil
}
