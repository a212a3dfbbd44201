// Package telemetry_test holds the end-to-end acceptance test for the
// observability layer: a real loopback federation with telemetry enabled
// must expose non-zero round, drop, and training-loss metrics over both
// the Prometheus and expvar endpoints. It lives in an external test
// package because it imports core/fl/transport, which import telemetry.
package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
	"github.com/cip-fl/cip/internal/telemetry"
)

// poisonClient is a misbehaving federation member: its update has the
// right length but carries NaN, so the coordinator must reject it
// (FailInvalid) and count it as dropped.
type poisonClient struct {
	id      int
	wantLen int
}

func (p *poisonClient) ID() int         { return p.id }
func (p *poisonClient) NumSamples() int { return 10 }
func (p *poisonClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	params := make([]float64, p.wantLen)
	for i := range params {
		params[i] = math.NaN()
	}
	return fl.Update{ClientID: p.id, Params: params, NumSamples: 10}, nil
}

func TestEndToEndFederationExposesMetrics(t *testing.T) {
	const (
		good   = 2
		total  = 3 // 2 honest CIP clients + 1 poison
		rounds = 2
	)

	reg := telemetry.NewRegistry()
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	train, _, err := datasets.SyntheticTabular(datasets.TabularConfig{
		Classes: 3, Train: 60, Test: 30, Features: 16, Sharpness: 0.4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := datasets.PartitionIID(train, good, rand.New(rand.NewSource(1)))

	cfg := core.TrainConfig{
		Alpha:     0.9,
		LambdaT:   1e-6,
		LambdaM:   0.3,
		BatchSize: 16,
		LR:        func(int) float64 { return 0.05 },
		Momentum:  0.9,
		Metrics:   core.NewMetrics(reg),
	}
	clients := make([]fl.Client, 0, total)
	var initial []float64
	for i := 0; i < good; i++ {
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(7)), model.MLP,
			train.In, train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		clients = append(clients, core.NewClient(i, dual, shards[i], cfg,
			core.BlendSeed(5, i), rand.New(rand.NewSource(int64(50+i)))))
	}
	clients = append(clients, &poisonClient{id: good, wantLen: len(initial)})

	coord := &transport.Coordinator{
		NumClients:   total,
		Rounds:       rounds,
		Initial:      initial,
		MinQuorum:    good,
		RoundTimeout: 30 * time.Second,
		Metrics:      transport.NewMetrics(reg),
		RoundMetrics: fl.NewMetrics(reg),
	}

	addrCh := make(chan string, 1)
	var (
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh

	var cwg sync.WaitGroup
	for _, c := range clients {
		cwg.Add(1)
		go func(c fl.Client) {
			defer cwg.Done()
			// The poison client is dropped mid-federation, so its
			// connection errors out; honest clients must not.
			err := transport.RunClientRetry(addr, c, transport.RetryConfig{})
			if err != nil && c.ID() != good {
				t.Errorf("honest client %d: %v", c.ID(), err)
			}
		}(c)
	}
	cwg.Wait()
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}

	// --- Prometheus endpoint ---
	prom := httpGet(t, fmt.Sprintf("http://%s/metrics", srv.Addr()))
	for _, name := range []string{"fl_round_duration", "fl_clients_dropped_total", "train_step2_loss"} {
		if !strings.Contains(prom, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, prom)
		}
	}
	if !promValueNonZero(prom, "fl_round_duration_seconds_count") {
		t.Fatalf("fl_round_duration_seconds_count is zero:\n%s", prom)
	}
	if !promValueNonZero(prom, "fl_clients_dropped_total") {
		t.Fatalf("fl_clients_dropped_total is zero:\n%s", prom)
	}
	if !promValueNonZero(prom, "train_step2_loss") {
		t.Fatalf("train_step2_loss is zero:\n%s", prom)
	}

	// --- expvar endpoint ---
	body := httpGet(t, fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	hist, ok := vars["fl_round_duration_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("fl_round_duration_seconds missing or not a histogram object: %v", vars)
	}
	if n, _ := hist["count"].(float64); n < rounds {
		t.Fatalf("fl_round_duration_seconds count = %v, want ≥ %d", hist["count"], rounds)
	}
	if dropped, _ := vars["fl_clients_dropped_total"].(float64); dropped < 1 {
		t.Fatalf("fl_clients_dropped_total = %v, want ≥ 1", vars["fl_clients_dropped_total"])
	}
	if loss, _ := vars["train_step2_loss"].(float64); loss <= 0 {
		t.Fatalf("train_step2_loss = %v, want > 0", vars["train_step2_loss"])
	}

	// The wire layer saw all three connections and some decode traffic.
	if conns, _ := vars["transport_conns_accepted_total"].(float64); conns != total {
		t.Fatalf("transport_conns_accepted_total = %v, want %d", conns, total)
	}
	if decoded, _ := vars["transport_decode_bytes_total"].(float64); decoded <= 0 {
		t.Fatalf("transport_decode_bytes_total = %v, want > 0", decoded)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// promValueNonZero scans the exposition text for `name value` sample
// lines (skipping # comments and labeled series) and reports whether the
// metric exists with a non-zero value.
func promValueNonZero(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			return fields[1] != "0" && fields[1] != "0.0"
		}
	}
	return false
}
