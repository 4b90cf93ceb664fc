package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// The box the benchmark runs on changes speed by a third over minutes
// (README, The box), and every time the server takes moves with it. A
// speedProbe measures that speed while the window is measured, without
// touching the server: every probeEvery a goroutine of its own times a
// fixed kernel, encoding and decoding one small JSON document probeReps
// times, which is the kind of code the server runs (the Go runtime,
// reflection, small allocations). The median duration over the window,
// divided by refProbeUS, says how much slower than the reference the box
// ran, and the end-to-end timings are reported at reference speed.
//
// The probe uses about 1% of one core. It does not depend on what the
// server does: it sends nothing and reads no reply, and a kernel of
// 150 us is rarely preempted. Measured (README, The box): a server made
// to answer 2.3x faster moved the probe by 1.5%, inside its own noise.
const (
	probeEvery = 20 * time.Millisecond
	probeReps  = 20
	// refProbeUS is the kernel's median duration, in microseconds, on the
	// reference box in its usual state. It is a unit, not a tuning knob:
	// changing it rescales every timing of every workload alike.
	refProbeUS = 150.0
)

type speedProbe struct {
	stop chan struct{}
	done sync.WaitGroup
	us   []float64 // written by the probe goroutine only, read after done
}

// probeDoc is the document the kernel encodes and decodes: the shape of
// an update reply and of a small view read.
var probeDoc = wireReply{
	OK:   true,
	Ops:  []string{"INSERT EMP(20001, 5, 'New York')", "REPLACE EMP(20000, 5, 'New York') -> EMP(20000, 5, 'Austin')"},
	Rows: [][]string{{"1", "2", "New York"}, {"3", "4", "Austin"}, {"5", "6", "New York"}},
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			for i := 0; i < probeReps; i++ {
				data, err := json.Marshal(probeDoc)
				var back wireReply
				if err == nil {
					err = json.Unmarshal(data, &back)
				}
				if err != nil {
					panic(err) // a fixed document of strings always round-trips
				}
			}
			p.us = append(p.us, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}()
	return p
}

// finish stops the probe and returns the median kernel duration in
// microseconds and the number of samples behind it.
func (p *speedProbe) finish() (float64, int) {
	close(p.stop)
	p.done.Wait()
	sort.Float64s(p.us)
	return quantile(p.us, 0.5), len(p.us)
}
