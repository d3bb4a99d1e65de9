package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression. The time-based bounds are wide
// because the reference machine is a shared VM whose CPU speed drifts
// by tens of percent within minutes; setup_s keeps the widest.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off. Latencies come from the open
// loop and count a failed operation as missing every limit.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_per_s", "op/s", "higher", 0.24},
	{"cpu_us_per_tx", "us", "lower", 0.24},
	{"auth_p50_ms", "ms", "lower", 0.24},
	{"remap_p50_ms", "ms", "lower", 0.24},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"rss_peak_mb", "MB", "lower", 0.05},
	{"disk_mb", "MB", "lower", 0.05},
	{"compact_s", "s", "lower", 0.24},
	{"recover_s", "s", "lower", 0.24},
}

// layerDef is a per-layer metric with the layer it measures, where it
// is measured, and which end-to-end metrics it should move on which
// workloads.
type layerDef struct {
	metricDef
	Layer      string   `json:"layer"`
	MeasuredAt string   `json:"measured_at"`
	Moves      []string `json:"moves"`
	On         []string `json:"on"`
}

//go:embed layers.json
var layersJSON []byte

// perLayer is decoded from layers.json, the record later changes cite.
var perLayer = func() []layerDef {
	var defs []layerDef
	if err := json.Unmarshal(layersJSON, &defs); err != nil {
		panic("perfbench: layers.json: " + err.Error())
	}
	return defs
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report attaches units to computed values; every metric of defs must
// be present.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func layerMetricDefs() []metricDef {
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
	}
	return defs
}
