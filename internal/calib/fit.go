package calib

import (
	"fmt"
	"sort"

	"heteropart/internal/device"
	"heteropart/internal/task"
)

// maxRatio is the fit's outlier guard: observed/predicted ratios
// outside [1/maxRatio, maxRatio] are dropped before the median — a
// chunk that ran 16× off the base model is evidence of interference
// (or an injected fault), not of a miscalibrated rate.
const maxRatio = 16.0

// Entry is one fitted correction, reported per (kernel, device) group.
type Entry struct {
	Kernel string `json:"kernel"`
	Device int    `json:"device"`
	// Samples is the number of surviving observations in the group.
	Samples int `json:"samples"`
	// MedianRatio is the robust observed/base-predicted ratio — the
	// fitted factor.
	MedianRatio float64 `json:"median_ratio"`
	// Factor is the device.Scale factor the entry contributes; it
	// equals MedianRatio (factors are absolute against the base model).
	Factor float64 `json:"factor"`
}

// ratioSample is one priced observation: the observed/base-predicted
// ratio of a chunk, tagged with its (kernel, device) group.
type ratioSample struct {
	kernel string
	dev    int
	ratio  float64
}

// ratioSamples prices observations through the base (calibration-free)
// model and keeps the ratios surviving the outlier guard.
func ratioSamples(obs []Observation, kernels map[string]*task.Kernel, base *device.Platform) ([]ratioSample, error) {
	base = base.Uncalibrated()
	var out []ratioSample
	for _, o := range obs {
		pred, err := predict(base, kernels, o)
		if err != nil {
			return nil, err
		}
		if pred <= 0 {
			continue
		}
		r := float64(o.ActualNs) / float64(pred)
		if r < 1/maxRatio || r > maxRatio {
			continue
		}
		out = append(out, ratioSample{kernel: o.Kernel, dev: o.Device, ratio: r})
	}
	return out, nil
}

// fitRatios groups priced samples by (kernel, device) and emits one
// exact device.Scale per group with the group's median ratio as its
// factor — a GPU often runs a kernel as a single chunk, so one sample
// is evidence enough. Groups are processed in sorted order and the
// outputs are sorted, so the fit is deterministic.
func fitRatios(samples []ratioSample) ([]device.Scale, []Entry, error) {
	type group struct {
		kernel string
		dev    int
	}
	ratios := make(map[group][]float64)
	for _, s := range samples {
		g := group{s.kernel, s.dev}
		ratios[g] = append(ratios[g], s.ratio)
	}
	groups := make([]group, 0, len(ratios))
	for g := range ratios {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].kernel != groups[j].kernel {
			return groups[i].kernel < groups[j].kernel
		}
		return groups[i].dev < groups[j].dev
	})
	var scales []device.Scale
	var entries []Entry
	for _, g := range groups {
		rs := ratios[g]
		m := median(rs)
		if m <= 0 {
			continue
		}
		scales = append(scales, device.Scale{Kernel: g.kernel, Device: g.dev, Factor: m})
		entries = append(entries, Entry{
			Kernel: g.kernel, Device: g.dev,
			Samples: len(rs), MedianRatio: m, Factor: m,
		})
	}
	if len(scales) == 0 {
		return nil, nil, fmt.Errorf("calib: no (kernel, device) group has a usable observation")
	}
	return scales, entries, nil
}

// Fit computes per-(kernel, device) correction factors from chunk
// observations: each observation's actual duration is divided by the
// *base* (calibration-free) model's prediction, ratios are grouped by
// (kernel, device), outliers beyond maxRatio are dropped, and each
// group contributes one exact device.Scale whose factor is the group's
// median ratio (robust to processor-sharing tails in ways a mean is
// not). Factors are absolute against the base model — fitting never
// compounds with an existing calibration.
func Fit(obs []Observation, kernels map[string]*task.Kernel, base *device.Platform) ([]device.Scale, []Entry, error) {
	samples, err := ratioSamples(obs, kernels, base)
	if err != nil {
		return nil, nil, err
	}
	return fitRatios(samples)
}

// median returns the middle of the sorted values (midpoint average for
// even counts). The input slice is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
