// Distributed: the same CIP federation as the quickstart, but run over
// the wire — a coordinator listening on loopback TCP and two CIP clients
// connecting as separate participants, exchanging parameter vectors as
// binary frames (internal/fl/transport, internal/fl/wire). The clients' secret perturbations never
// appear in any message; only model parameters cross the network, exactly
// the property CIP's threat model relies on.
//
// The coordinator here runs in fault-tolerant mode: per-round client
// deadlines, an accept window bounding the roster wait, and quorum-based
// partial aggregation — a client that stalls or drops is removed from the
// round instead of sinking the federation. Clients dial with exponential
// backoff + jitter, so they may be launched before the coordinator is up.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"github.com/cip-fl/cip/internal/core"
	"github.com/cip-fl/cip/internal/datasets"
	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/transport"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

const (
	numClients = 2
	rounds     = 15
	seed       = 33
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	d, err := datasets.Load(datasets.CHMNIST, datasets.Quick, seed)
	if err != nil {
		return err
	}
	shards := datasets.PartitionIID(d.Train, numClients, rand.New(rand.NewSource(seed)))

	cfg := core.TrainConfig{
		Alpha: 0.9, LambdaT: 1e-6, LambdaM: 0.3, PerturbLR: 0.02,
		BatchSize: 16, LR: fl.DecaySchedule(0.04, rounds), Momentum: 0.9,
	}
	clients := make([]*core.Client, numClients)
	var initial []float64
	for i := 0; i < numClients; i++ {
		dual := core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), model.VGG,
			d.Train.In, d.Train.NumClasses)
		if initial == nil {
			initial = nn.FlattenParams(dual.Params())
		}
		clients[i] = core.NewClient(i, dual, shards[i], cfg, core.BlendSeed(seed, i),
			rand.New(rand.NewSource(seed+int64(10+i))))
	}

	coord := &transport.Coordinator{
		NumClients:   numClients,
		Rounds:       rounds,
		Initial:      initial,
		MinQuorum:    1,
		RoundTimeout: 2 * time.Minute,
		AcceptWindow: 30 * time.Second,
	}
	addrCh := make(chan string, 1)
	var (
		global []float64
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		global, srvErr = coord.ListenAndRun("127.0.0.1:0", func(a string) {
			fmt.Printf("coordinator listening on %s\n", a)
			addrCh <- a
		})
	}()
	addr := <-addrCh

	var cwg sync.WaitGroup
	for i, c := range clients {
		cwg.Add(1)
		go func(i int, c *core.Client) {
			defer cwg.Done()
			retry := transport.RetryConfig{
				MaxAttempts: 5,
				BaseDelay:   100 * time.Millisecond,
			}
			if err := transport.RunClientRetry(addr, c, retry); err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			fmt.Printf("client %d finished %d rounds\n", i, rounds)
		}(i, c)
	}
	cwg.Wait()
	wg.Wait()
	if srvErr != nil {
		return srvErr
	}

	// Each client evaluates the final global model with its own secret t.
	evalDual := core.NewDualChannelModel(rand.New(rand.NewSource(seed+1)), model.VGG,
		d.Train.In, d.Train.NumClasses)
	if err := nn.SetFlatParams(evalDual.Params(), global); err != nil {
		return err
	}
	for i, c := range clients {
		m := core.NewCIPModel(evalDual, c.Perturbation().T, cfg.Alpha)
		fmt.Printf("client %d: global-model test accuracy with its t = %.3f\n",
			i, fl.Evaluate(m, d.Test, 64))
	}
	fmt.Println("only parameter vectors crossed the wire; every t stayed client-local")
	return nil
}
