package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/checkpoint"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/faults"
	"github.com/cip-fl/cip/internal/fl/robust"
)

// vecClient produces a deterministic update from (id, round, global), so
// any two federations over the same roster must agree bit for bit.
type vecClient struct {
	id      int
	samples int
	rounds  int32 // TrainLocal invocations, for sampling assertions
}

func (c *vecClient) ID() int         { return c.id }
func (c *vecClient) NumSamples() int { return c.samples }
func (c *vecClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	atomic.AddInt32(&c.rounds, 1)
	p := make([]float64, len(global))
	for i := range p {
		p[i] = global[i] + float64(c.id+1)*0.01*float64(i+1) + float64(round)*0.001
	}
	return fl.Update{Params: p, NumSamples: c.samples, TrainLoss: 1}, nil
}

// A vecClient's update depends only on (id, round, global), so its state
// is empty; it implements fl.StatefulClient so both engines can resume it.
func (c *vecClient) CaptureState() ([]byte, error) { return []byte{}, nil }
func (c *vecClient) RestoreState([]byte) error     { return nil }

// runVecFederation runs one federation over n fresh vecClients and
// returns the final global plus the clients (for participation counts).
func runVecFederation(t *testing.T, coord *Coordinator, n int) ([]float64, []*vecClient) {
	t.Helper()
	clients := make([]*vecClient, n)
	roster := make([]fl.Client, n)
	for i := range clients {
		clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		roster[i] = clients[i]
	}
	global, errs, srvErr := runFederation(t, coord, roster, RetryConfig{})
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return global, clients
}

// runFederation runs coord over the roster, each client dialing once with
// rc, and returns the coordinator's result and every client's error.
func runFederation(t *testing.T, coord *Coordinator, roster []fl.Client, rc RetryConfig) ([]float64, []error, error) {
	t.Helper()
	addr, wait := startCoordinator(t, coord)
	var cwg sync.WaitGroup
	errs := make([]error, len(roster))
	for i, c := range roster {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			errs[i] = RunClientRetry(addr, c, rc)
		}()
	}
	global, srvErr := wait()
	cwg.Wait()
	return global, errs, srvErr
}

// everyRow wraps a rule with no stream form and records how many rows
// each round's one call aggregates.
type everyRow struct {
	robust.Aggregator
	rows []int
}

func (a *everyRow) Aggregate(center []float64, params [][]float64, w []float64) ([]float64, robust.Report, error) {
	a.rows = append(a.rows, len(params))
	return a.Aggregator.Aggregate(center, params, w)
}

// exactRows wraps rule, when it has no stream form, and returns a check
// that each of rounds rounds ran it once over all n of the round's rows:
// a flat round's rows are never subsampled.
func exactRows(t *testing.T, rule robust.Aggregator, n, rounds int) (robust.Aggregator, func()) {
	if _, streams := rule.(robust.StreamRule); rule == nil || streams {
		return rule, func() {}
	}
	a := &everyRow{Aggregator: rule}
	return a, func() {
		t.Helper()
		if len(a.rows) != rounds {
			t.Fatalf("%s ran %d times in %d rounds", rule.Name(), len(a.rows), rounds)
		}
		for r, got := range a.rows {
			if got != n {
				t.Fatalf("round %d: %s aggregated %d rows, want all %d", r, rule.Name(), got, n)
			}
		}
	}
}

// TestFlatTCPMatchesInProcess is the differential oracle between the two
// round engines: a flat TCP federation over 5 vecClients and an
// in-process fl.Server over the same roster must agree bit for bit — the
// final global and every HistoryRecorder record — for every aggregation
// rule, with and without an observer and a reputation tracker, at windows
// 1 (fully serialized), 2 and 64 (fully concurrent), whatever order the
// clients' answers arrive in. A rule with no stream form runs once a
// round over every row on both engines.
func TestFlatTCPMatchesInProcess(t *testing.T) {
	const n, rounds = 5, 3
	initial := make([]float64, 33)
	for i := range initial {
		initial[i] = math.Sin(float64(i)) * 2
	}
	rules := []struct {
		name string
		rule robust.Aggregator
		rep  bool // also run with a reputation tracker
	}{
		{"fedavg", nil, true},
		{"mean", robust.Mean{}, false},
		{"clipped", robust.ClippedMean{MaxNorm: 0.05}, false},
		{"median", robust.Median{}, true},
		{"trimmed", robust.TrimmedMean{Frac: 0.2}, false},
	}
	for _, r := range rules {
		for _, rep := range []bool{false, true} {
			if rep && !r.rep {
				continue
			}
			for _, observe := range []bool{false, true} {
				name := r.name
				if rep {
					name += "/reputation"
				}
				if observe {
					name += "/history"
				}
				newRep := func() *robust.Reputation {
					if !rep {
						return nil
					}
					return robust.NewReputation(robust.ReputationConfig{})
				}
				// The in-process reference.
				clients := make([]fl.Client, n)
				for i := range clients {
					clients[i] = &vecClient{id: i, samples: 5 + 3*i}
				}
				srv := fl.NewServer(initial, clients...)
				rule, exact := exactRows(t, r.rule, n, rounds)
				if r.rule != nil || rep {
					srv.Policy = &fl.RoundPolicy{Robust: rule, Reputation: newRep()}
				}
				wantRec := &fl.HistoryRecorder{KeepParams: true}
				if observe {
					srv.Observers = []fl.RoundObserver{wantRec}
				}
				if err := srv.Run(rounds); err != nil {
					t.Fatalf("%s: in-process: %v", name, err)
				}
				exact()
				want := srv.Global()

				for _, w := range []int{1, 2, 64} {
					t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
						rec := &fl.HistoryRecorder{KeepParams: true}
						rule, exact := exactRows(t, r.rule, n, rounds)
						coord := &Coordinator{
							NumClients: n, Rounds: rounds, Initial: initial,
							Robust: rule, Reputation: newRep(), MaxInflightUpdates: w,
						}
						if observe {
							coord.Observers = []fl.RoundObserver{rec}
						}
						got, _ := runVecFederation(t, coord, n)
						exact()
						sameBits(t, "final global", got, want)
						sameHistory(t, rec, wantRec)
					})
				}
			}
		}
	}
	roundRulesMatch(t, initial)
	resumeMatches(t, initial)
	treeMatches(t, initial)
	sketchBoundMatches(t, initial)
}

// resumeMatches is the oracle's kill→resume table over compression
// {dense, topk8} × rule {fedavg, median}: each engine is killed after
// round 2 (snapshots after rounds 1 and 3, so the resume replays round 2)
// and resumed — in process through RunWithOptions, CaptureState and
// RestoreState onto a fresh server, over TCP through an AfterRound crash
// and a Restore coordinator on the same address that the retrying clients
// rejoin. Both resumed runs must match the uninterrupted in-process run
// bit for bit: the final global and every post-resume HistoryRecorder
// round.
func resumeMatches(t *testing.T, initial []float64) {
	const n, rounds, every, crash = 5, 5, 2, 2
	for _, mode := range []string{"", "topk8"} {
		for _, rule := range []robust.Aggregator{nil, robust.Median{}} {
			name := fmt.Sprintf("resume/%s/%s", cmp.Or(mode, "dense"), map[bool]string{true: "fedavg", false: "median"}[rule == nil])
			m, err := compress.ParseMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg := compress.Config{Mode: m, TopKFrac: 0.25}
			// server builds a fresh in-process federation and its recorder.
			server := func() (*fl.Server, *fl.HistoryRecorder) {
				clients := make([]fl.Client, n)
				for i := range clients {
					clients[i] = &vecClient{id: i, samples: 5 + 3*i}
				}
				srv := fl.NewServer(initial, clients...)
				srv.Policy = &fl.RoundPolicy{Robust: rule}
				if mode != "" {
					srv.Policy.Compress = compress.NewBank(cfg)
				}
				rec := &fl.HistoryRecorder{KeepParams: true}
				srv.Observers = []fl.RoundObserver{rec}
				return srv, rec
			}
			ref, refRec := server()
			if err := ref.Run(rounds); err != nil {
				t.Fatalf("%s: uninterrupted: %v", name, err)
			}
			want := ref.Global()
			wantRec := &fl.HistoryRecorder{Rounds: refRec.Rounds[crash:]}

			t.Run(name+"/in-process", func(t *testing.T) {
				srv, _ := server()
				var saved *fl.ServerState
				err := srv.RunWithOptions(rounds, fl.RunOptions{
					CheckpointEvery: every,
					Save:            func(st *fl.ServerState) error { saved = st; return nil },
					AfterRound:      faults.CrashAt(crash),
				})
				if !errors.Is(err, faults.ErrCrash) || saved == nil || saved.NextRound != crash {
					t.Fatalf("killed run: %v, snapshot %+v", err, saved)
				}
				resumed, rec := server()
				if err := resumed.RestoreState(saved); err != nil {
					t.Fatal(err)
				}
				if err := resumed.Run(rounds); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "final global", resumed.Global(), want)
				sameHistory(t, rec, wantRec)
			})

			t.Run(name+"/tcp", func(t *testing.T) {
				mgr := &checkpoint.Manager{Path: filepath.Join(t.TempDir(), "oracle.ckpt")}
				coord := func() *Coordinator {
					return &Coordinator{
						NumClients: n, Rounds: rounds, Initial: initial, Robust: rule,
						Checkpoint: mgr, CheckpointEvery: every,
					}
				}
				first := coord()
				first.AfterRound = faults.CrashAt(crash)
				addr, wait := startCoordinator(t, first)
				var cwg sync.WaitGroup
				errs := make([]error, n)
				for i := range n {
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						errs[i] = RunClientRetry(addr, &vecClient{id: i, samples: 5 + 3*i}, RetryConfig{
							Compress: mode, TopKFrac: cfg.TopKFrac,
							MaxAttempts: 50, BaseDelay: 5 * time.Millisecond,
							Rng: rand.New(rand.NewSource(int64(300 + i))),
						})
					}()
				}
				if _, err := wait(); !errors.Is(err, faults.ErrCrash) {
					t.Fatalf("first coordinator: got %v, want ErrCrash", err)
				}
				snap, err := mgr.Load()
				if err != nil {
					t.Fatal(err)
				}
				second := coord()
				second.Restore = snap
				rec := &fl.HistoryRecorder{KeepParams: true}
				second.Observers = []fl.RoundObserver{rec}
				got, err := second.ListenAndRun(addr, nil)
				cwg.Wait()
				if err != nil {
					t.Fatalf("restored coordinator: %v", err)
				}
				for i, err := range errs {
					if err != nil {
						t.Fatalf("client %d: %v", i, err)
					}
				}
				sameBits(t, "final global", got, want)
				sameHistory(t, rec, wantRec)
			})
		}
	}
}

// treeMatches is the oracle's tree table: a depth-1 (root ← leaf ← 5
// vecClients) and a depth-2 (root ← interior ← leaf ← 5) tree under the
// mean rule and under Median below the sketch capacity must match the
// in-process server over the same 5 clients bit for bit. Each tier folds
// one subtree's partial into a zero accumulator, which adds nothing, so
// the mean rows are exact; Median sorts the leaf's exact client rows.
func treeMatches(t *testing.T, initial []float64) {
	const n, rounds = 5, 3
	for _, rule := range []robust.Aggregator{nil, robust.Median{}} {
		clients := make([]fl.Client, n)
		for i := range clients {
			clients[i] = &vecClient{id: i, samples: 5 + 3*i}
		}
		srv := fl.NewServer(initial, clients...)
		if rule != nil {
			srv.Policy = &fl.RoundPolicy{Robust: rule}
		}
		if err := srv.Run(rounds); err != nil {
			t.Fatal(err)
		}
		want := srv.Global()
		for _, depth := range []int{1, 2} {
			name := fmt.Sprintf("tree/depth%d/%s", depth, map[bool]string{true: "mean", false: "median"}[rule == nil])
			t.Run(name, func(t *testing.T) {
				root := &Coordinator{
					NumClients: 1, Rounds: rounds, Initial: initial,
					AcceptPartials: true, Robust: rule,
				}
				parent, rootWait := startCoordinator(t, root)
				var interiorWait func() error
				if depth == 2 {
					parent, interiorWait = startNode(t, &Leaf{
						Root: parent, Local: Coordinator{NumClients: 1, Initial: initial, AcceptPartials: true},
					})
				}
				shard := make([]fl.Client, n)
				for i := range shard {
					shard[i] = &vecClient{id: i, samples: 5 + 3*i}
				}
				clientErrs := make([]error, n)
				leafWait := startLeaf(t, &Leaf{Root: parent, Local: Coordinator{NumClients: n, Initial: initial}},
					shard, clientErrs)
				got, err := rootWait()
				if err != nil {
					t.Fatalf("root: %v", err)
				}
				if interiorWait != nil {
					if err := interiorWait(); err != nil {
						t.Fatalf("interior: %v", err)
					}
				}
				if err := leafWait(); err != nil {
					t.Fatalf("leaf: %v", err)
				}
				for i, err := range clientErrs {
					if err != nil {
						t.Fatalf("client %d: %v", i, err)
					}
				}
				sameBits(t, "final global", got, want)
			})
		}
	}
}

// rankClient's update ignores the global it trains from, so a tree and a
// flat federation over the same roster see the same rows every round
// whatever their globals; it keeps each round's global, which from round 1
// on is the previous round's aggregate. Its coordinates are uncorrelated
// across clients, so each coordinate's order statistic is a different
// client's.
type rankClient struct {
	id   int
	seen [][]float64
}

func (c *rankClient) ID() int         { return c.id }
func (c *rankClient) NumSamples() int { return 1 + c.id%3 }
func (c *rankClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	c.seen = append(c.seen, append([]float64(nil), global...))
	p := make([]float64, len(global))
	for i := range p {
		p[i] = math.Sin(float64((c.id+1)*(i+7)) + 0.37*float64(round))
	}
	return fl.Update{Params: p, NumSamples: c.NumSamples(), TrainLoss: 1}, nil
}

// sketchBoundMatches is the oracle's row above the sketch capacity: a
// depth-2 tree (root ← interior ← 2 leaves ← 20 rankClients each) with a
// reservoir of K = 16 rows, below every tier's row count, under Median
// and TrimmedMean. Every round's root aggregate must lie, coordinate by
// coordinate, between the (½−ε)- and (½+ε)-quantiles of the in-process
// flat run's rows that round, ε = robust.SampleRankError(K, 0.05); and it
// must be the rule over exactly the K client rows with the smallest keys,
// whatever tier dropped the others.
func sketchBoundMatches(t *testing.T, initial []float64) {
	const leaves, perLeaf, capRows, rounds, delta = 2, 20, 16, 3, 0.05
	eps := robust.SampleRankError(capRows, delta)
	for _, rule := range []robust.Aggregator{robust.Median{}, robust.TrimmedMean{Frac: 0.2}} {
		roster := make([]fl.Client, leaves*perLeaf)
		for i := range roster {
			roster[i] = &rankClient{id: i}
		}
		srv := fl.NewServer(initial, roster...)
		srv.Policy = &fl.RoundPolicy{Robust: rule}
		rec := &fl.HistoryRecorder{KeepParams: true}
		srv.Observers = []fl.RoundObserver{rec}
		if err := srv.Run(rounds); err != nil {
			t.Fatal(err)
		}
		t.Run("tree/above-capacity/"+rule.Name(), func(t *testing.T) {
			root := &Coordinator{
				NumClients: 1, Rounds: rounds, Initial: initial,
				AcceptPartials: true, Robust: rule, TreeSketchCap: capRows,
			}
			rootAddr, rootWait := startCoordinator(t, root)
			interiorAddr, interiorWait := startNode(t, &Leaf{
				Root: rootAddr, Local: Coordinator{NumClients: leaves, Initial: initial, AcceptPartials: true},
			})
			waits := []func() error{interiorWait}
			clients := make([]*rankClient, leaves*perLeaf)
			errs := make([][]error, leaves)
			for l := range leaves {
				shard := make([]fl.Client, perLeaf)
				for i := range shard {
					clients[l*perLeaf+i] = &rankClient{id: l*perLeaf + i}
					shard[i] = clients[l*perLeaf+i]
				}
				errs[l] = make([]error, perLeaf)
				waits = append(waits, startLeaf(t, &Leaf{
					ID: l, Root: interiorAddr, Local: Coordinator{NumClients: perLeaf, Initial: initial},
				}, shard, errs[l]))
			}
			final, err := rootWait()
			if err != nil {
				t.Fatalf("root: %v", err)
			}
			for i, wait := range waits {
				if err := wait(); err != nil {
					t.Fatalf("tree node %d: %v", i, err)
				}
			}
			for l := range errs {
				for i, err := range errs[l] {
					if err != nil {
						t.Fatalf("leaf %d client %d: %v", l, i, err)
					}
				}
			}
			for r, want := range rec.Rounds {
				got := final
				if r+1 < rounds {
					got = clients[0].seen[r+1]
				}
				rows := want.LocalParams
				sk := robust.NewSketch(capRows)
				for id, row := range rows {
					sk.Add(robust.KeyClient(id), row)
				}
				sub, _, err := rule.Aggregate(want.Global, sk.RowsView(), nil)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("round %d: the rule over the %d smallest keys", r, capRows), got, sub)
				n := float64(len(rows))
				for i, v := range got {
					below, atMost := 0, 0
					for _, row := range rows {
						if row[i] < v {
							below++
						}
						if row[i] <= v {
							atMost++
						}
					}
					if float64(atMost) < (0.5-eps)*n || float64(below) > (0.5+eps)*n {
						t.Fatalf("round %d coord %d: %v has %d of %d flat rows below it and %d at most, outside ½ ± %.3f",
							r, i, v, below, len(rows), atMost, eps)
					}
				}
			}
		})
	}
}

// roundRulesMatch is the oracle's second table: the round rules both
// engines run from one copy in package fl — SampleCohort, validation and
// the fail-stop and quorum paths, and reputation scoring above — over
// compression {none, topk8, q16} × sampling {off, 0.5} × failures {clean,
// fail-stop with a NaN client in round 1, MinQuorum 3 with a NaN update in
// the final round} × windows {1, 64}. A fail-stop run samples on neither
// engine (the coordinator refuses it; in process sampling needs a
// RoundPolicy), and in process compression needs a RoundPolicy too, so
// fail-stop rows run dense and unsampled. The roster is 8 clients, so a
// sampled cohort of 4 keeps MinQuorum 3 after one invalid update. The
// invalid update comes in the final round because the engines part after
// it by design: TCP closes a failed client's connection and drops it from
// the roster, in process it trains again next round.
func roundRulesMatch(t *testing.T, initial []float64) {
	const n, rounds, seed = 8, 3, 5
	for _, mode := range []string{"", "topk8", "q16"} {
		for _, frac := range []float64{0, 0.5} {
			for _, failure := range []string{"clean", "fail-stop", "quorum"} {
				if failure == "fail-stop" && (mode != "" || frac > 0) {
					continue
				}
				name := fmt.Sprintf("rules/%s/sample%v/%s", cmp.Or(mode, "dense"), frac, failure)
				quorum := map[string]int{"clean": 0, "fail-stop": 0, "quorum": 3}[failure]
				if frac > 0 {
					quorum = max(quorum, 1)
				}
				// roster builds a fresh federation, corrupting one client:
				// client 2 in round 1 (fail-stop), or a member of the final
				// round's cohort (quorum).
				roster := func() []fl.Client {
					clients := make([]fl.Client, n)
					for i := range clients {
						clients[i] = &vecClient{id: i, samples: 5 + 3*i}
					}
					switch failure {
					case "fail-stop":
						clients[2] = faults.NewCorrupt(clients[2], faults.CorruptNaN, faults.On(1))
					case "quorum":
						cohort, _ := fl.SampleCohort(clients, fl.Client.NumSamples, frac, seed, rounds-1, quorum)
						bad := cohort[1].ID()
						clients[bad] = faults.NewCorrupt(clients[bad], faults.CorruptNaN, faults.On(rounds-1))
					}
					return clients
				}
				m, err := compress.ParseMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				cfg := compress.Config{Mode: m, TopKFrac: 0.25}
				srv := fl.NewServer(initial, roster()...)
				if mode != "" || quorum > 0 {
					srv.Policy = &fl.RoundPolicy{MinQuorum: quorum, SampleFraction: frac, SampleSeed: seed}
					if mode != "" {
						srv.Policy.Compress = compress.NewBank(cfg)
					}
				}
				wantRec := &fl.HistoryRecorder{KeepParams: true}
				srv.Observers = []fl.RoundObserver{wantRec}
				wantErr := srv.Run(rounds)
				if (wantErr != nil) != (failure == "fail-stop") {
					t.Fatalf("%s: in-process: %v", name, wantErr)
				}
				// The row exercises what it names: 4 of 8 train when sampled,
				// and the quorum row drops one client in the final round.
				for _, r := range wantRec.Rounds {
					trained := len(r.LocalParams) + len(r.Dropped)
					if dropped := len(r.Dropped) == 1; trained != map[bool]int{false: n, true: 4}[frac > 0] ||
						dropped != (failure == "quorum" && r.Round == rounds-1) {
						t.Fatalf("%s: round %d trained %d clients, dropped %v", name, r.Round, trained, r.Dropped)
					}
				}
				for _, w := range []int{1, 64} {
					t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
						rec := &fl.HistoryRecorder{KeepParams: true}
						coord := &Coordinator{
							NumClients: n, Rounds: rounds, Initial: initial, MinQuorum: quorum,
							SampleFraction: frac, SampleSeed: seed, MaxInflightUpdates: w,
							Observers: []fl.RoundObserver{rec},
						}
						got, _, err := runFederation(t, coord, roster(), RetryConfig{Compress: mode, TopKFrac: cfg.TopKFrac})
						sameHistory(t, rec, wantRec)
						if wantErr != nil {
							// Both engines stop in round 1 and name client 2.
							for _, e := range []error{wantErr, err} {
								if e == nil || !strings.Contains(e.Error(), "round 1: ") ||
									clientNamed.FindStringSubmatch(e.Error())[1] != "2" {
									t.Fatalf("want a round-1 failure naming client 2; in process %v, TCP %v", wantErr, err)
								}
							}
							return
						}
						if err != nil {
							t.Fatalf("coordinator: %v", err)
						}
						sameBits(t, "final global", got, srv.Global())
					})
				}
			}
		}
	}
}

// clientNamed finds the first client an error message names.
var clientNamed = regexp.MustCompile(`client (\d+)`)

// sameHistory requires two HistoryRecorders to agree bit for bit: every
// round's pre-round global, losses and updates, and who was dropped why.
func sameHistory(t *testing.T, got, want *fl.HistoryRecorder) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("recorded %d rounds, in process %d", len(got.Rounds), len(want.Rounds))
	}
	for i, rr := range got.Rounds {
		wr := want.Rounds[i]
		sameBits(t, fmt.Sprintf("round %d global", rr.Round), rr.Global, wr.Global)
		sameBits(t, fmt.Sprintf("round %d losses", rr.Round), rr.TrainLosses, wr.TrainLosses)
		if len(rr.LocalParams) != len(wr.LocalParams) {
			t.Fatalf("round %d: %d updates recorded, in process %d", rr.Round, len(rr.LocalParams), len(wr.LocalParams))
		}
		for j := range rr.LocalParams {
			sameBits(t, fmt.Sprintf("round %d update %d", rr.Round, j), rr.LocalParams[j], wr.LocalParams[j])
		}
		if len(rr.Dropped) != len(wr.Dropped) {
			t.Fatalf("round %d: dropped %v, in process %v", rr.Round, rr.Dropped, wr.Dropped)
		}
		for j, f := range rr.Dropped {
			if w := wr.Dropped[j]; f.ClientID != w.ClientID || f.Reason != w.Reason {
				t.Fatalf("round %d: dropped client %d (%s), in process client %d (%s)",
					rr.Round, f.ClientID, f.Reason, w.ClientID, w.Reason)
			}
		}
	}
}

// TestSampledCohortsAreDeterministic: SampleFraction selects exactly
// round(f·roster) clients per round (never below quorum), and the
// per-client participation schedule is a pure function of (seed, round):
// two federations with the same seed pick identical cohorts.
func TestSampledCohortsAreDeterministic(t *testing.T) {
	const n, rounds = 4, 6
	run := func(seed int64) []int32 {
		coord := &Coordinator{
			NumClients: n, Rounds: rounds, Initial: []float64{1, 2},
			MinQuorum: 2, SampleFraction: 0.5, SampleSeed: seed,
		}
		_, clients := runVecFederation(t, coord, n)
		counts := make([]int32, n)
		var total int32
		for i, c := range clients {
			counts[i] = atomic.LoadInt32(&c.rounds)
			total += counts[i]
		}
		if total != rounds*2 {
			t.Fatalf("seed %d: %d total exchanges, want %d (2 per round)", seed, total, rounds*2)
		}
		return counts
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: client %d trained %d vs %d rounds", i, a[i], b[i])
		}
	}
	// A weighted sampler must not be degenerate: over 6 rounds of 2-of-4,
	// no single client can own every slot.
	for i, c := range a {
		if c == rounds {
			t.Fatalf("client %d sampled every round — sampler looks degenerate: %v", i, a)
		}
	}
}

// TestFailStopSamplingRefused: a fail-stop node that samples its own
// clients floors the cohort at the whole roster, so SampleFraction would
// silently train everyone; flat coordinators and leaves refuse it before
// accepting anyone. A tree parent only relays the directive and may
// carry it without a quorum (TestRootSamplingDirectiveThinsShards).
func TestFailStopSamplingRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	flat := Coordinator{NumClients: 4, Rounds: 6, Initial: []float64{1, 2}, SampleFraction: 0.5}
	if _, err := flat.RunWithListener(ln, nil); err == nil || !strings.Contains(err.Error(), "needs MinQuorum > 0") {
		t.Fatalf("flat fail-stop sampling: got %v, want a refusal", err)
	}
	leaf := &Leaf{Root: "127.0.0.1:1", Local: flat}
	if _, err := leaf.RunWithListener(ln, nil); err == nil || !strings.Contains(err.Error(), "needs MinQuorum > 0") {
		t.Fatalf("leaf fail-stop sampling: got %v, want a refusal", err)
	}
}

// TestRejoinJoinsMidFederation: with AcceptRejoins, a client that dials
// after the federation has started is parked by the accept loop and
// admitted at the next round boundary, then participates normally.
func TestRejoinJoinsMidFederation(t *testing.T) {
	const rounds = 5
	late := &vecClient{id: 2, samples: 9}
	lateErr := make(chan error, 1)
	var launched bool
	var addr string
	coord := &Coordinator{
		NumClients: 2, Rounds: rounds, Initial: []float64{1, -2, 3},
		MinQuorum: 2, AcceptRejoins: true,
	}
	coord.AfterRound = func(round int) error {
		if round == 1 && !launched {
			launched = true
			go func() { lateErr <- RunClient(addr, late) }()
			// Give the hello/park handshake time to land so the round-2
			// boundary admits the newcomer.
			time.Sleep(500 * time.Millisecond)
		}
		return nil
	}

	var wait func() ([]float64, error)
	addr, wait = startCoordinator(t, coord)
	var cwg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = RunClient(addr, &vecClient{id: i, samples: 10})
		}(i)
	}
	_, srvErr := wait()
	cwg.Wait()
	if srvErr != nil {
		t.Fatalf("coordinator: %v", srvErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("original client %d: %v", i, err)
		}
	}
	if err := <-lateErr; err != nil {
		t.Fatalf("late client: %v", err)
	}
	got := atomic.LoadInt32(&late.rounds)
	if got == 0 || got > rounds-2 {
		t.Fatalf("late client trained %d rounds, want 1..%d", got, rounds-2)
	}
}
