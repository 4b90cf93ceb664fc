package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

// stream encodes the first n ops of every client of a workload.
func stream(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for c := 0; c < clients; c++ {
		g := w.newClient(seed, c)
		for i := 0; i < n; i++ {
			if err := enc.Encode(g.next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		a, b := stream(t, w, 7, 2000), stream(t, w, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if bytes.Equal(a, stream(t, w, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

// partitions states, per workload, which keys of the ops' root view a
// client may write. The reader of sp_large_mixed writes nothing.
var partitions = map[string]func(client int) (lo, hi int){
	"sp_small_durable":    func(c int) (int, int) { return c*50000 + 1, (c + 1) * 50000 },
	"sp_large_mixed":      func(c int) (int, int) { return 15001, 100000 },
	"spj_mid_mem":         func(c int) (int, int) { return 5000 + c*47500 + 1, 5000 + (c+1)*47500 },
	"spj_sharded_durable": func(c int) (int, int) { return c*50000 + 1, (c + 1) * 50000 },
}

// TestKeysStayInPartitionAndRecycle replays far more ops than any key
// ring is long, against the liveness rules the server enforces: an
// insert needs a dead key, everything else a live one. It is the proof
// that a run of any length exhausts no domain and that no op can fail
// for a reason the generator could have known.
func TestKeysStayInPartitionAndRecycle(t *testing.T) {
	const opsPerClient = 400000 // the longest ring is 85,000 keys and hands out two per 4-op cycle
	for _, w := range workloads() {
		m := newModel(w)
		live := map[string]map[string]bool{}
		for _, v := range w.views {
			live[v.name] = map[string]bool{}
			for k := range m.rows(v) {
				live[v.name][k] = true
			}
		}
		// parentView is where a join view's second relation is visible.
		parentView := map[string]string{"EDD": "DV", "ED": "DV"}
		for c := 0; c < clients; c++ {
			g := w.newClient(3, c)
			lo, hi := partitions[w.name](c)
			distinct := map[string]bool{}
			for i := 0; i < opsPerClient; i++ {
				o := g.next()
				keyCol := m.cols[o.View][0]
				key := o.Where[keyCol]
				switch o.Kind {
				case "insert":
					key = o.Values[0]
					if live[o.View][key] {
						t.Fatalf("%s client %d op %d: insert of live key %s", w.name, c, i, key)
					}
					live[o.View][key] = true
					if o.Step == "insert_new_parent" {
						pv := parentView[o.View]
						if live[pv][o.Values[1]] {
							t.Fatalf("%s client %d op %d: new parent %s already exists", w.name, c, i, o.Values[1])
						}
						live[pv][o.Values[1]] = true
					}
				case "replace":
					if !live[o.View][key] {
						t.Fatalf("%s client %d op %d: replace of dead key %s", w.name, c, i, key)
					}
					if to, ok := o.Set[keyCol]; ok {
						if live[o.View][to] {
							t.Fatalf("%s client %d op %d: key move onto live key %s", w.name, c, i, to)
						}
						delete(live[o.View], key)
						live[o.View][to] = true
						key = to
					}
				case "delete":
					if !live[o.View][key] {
						t.Fatalf("%s client %d op %d: delete of dead key %s", w.name, c, i, key)
					}
					delete(live[o.View], key)
				case "read":
					if !live[o.View][key] {
						t.Fatalf("%s client %d op %d: read of dead key %s", w.name, c, i, key)
					}
					continue
				}
				if o.View != w.opViews[0] {
					continue // the parent clean-up step; its keys are checked as parents above
				}
				k, err := strconv.Atoi(key)
				if err != nil || k < lo || k > hi {
					t.Fatalf("%s client %d op %d: key %s outside partition [%d, %d]", w.name, c, i, key, lo, hi)
				}
				distinct[key] = true
			}
			if w.name == "sp_large_mixed" && c == 1 {
				continue // the reader allocates no keys
			}
			if len(distinct) != hi-lo+1 {
				t.Errorf("%s client %d: %d ops used %d distinct keys, want the whole ring of %d reused",
					w.name, c, opsPerClient, len(distinct), hi-lo+1)
			}
		}
	}
}
