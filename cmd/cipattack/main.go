// Command cipattack mounts a membership inference attack against a model
// artifact saved by ciptrain, reporting attack accuracy, precision,
// recall, F1 and AUC. The attacker never uses the artifact's saved
// perturbation: CIP models are queried with the zero perturbation, exactly
// like the paper's external adversary.
//
// Usage:
//
//	cipattack -model model.gob -attack malt
//	cipattack -model model.gob -attack all
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/cip-fl/cip/internal/attacks"
	"github.com/cip-fl/cip/internal/experiments"
	"github.com/cip-fl/cip/internal/flcli"
	"github.com/cip-fl/cip/internal/model"
	"github.com/cip-fl/cip/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cipattack:", err)
		os.Exit(1)
	}
}

func run() error {
	modelPath := flag.String("model", "model.gob", "artifact from ciptrain")
	attackName := flag.String("attack", "malt", "attack: label, malt, nn, blindmi, pbbayes, or all")
	seed := flag.Int64("seed", 7, "random seed")
	shadowEpochs := flag.Int("shadow-epochs", 25, "shadow model training epochs (nn, pbbayes)")
	flag.Parse()

	a, err := experiments.LoadArtifact(*modelPath)
	if err != nil {
		return err
	}
	d, err := a.Data()
	if err != nil {
		return err
	}
	// The attacker's view: for CIP artifacts this queries with zero t.
	net, err := a.Net(false)
	if err != nil {
		return err
	}

	// Standard attack layout: half the train/test sets for the target,
	// half for the attacker's shadow machinery.
	tt, st := d.Train.Split(d.Train.Len() / 2)
	nm, sx := d.Test.Split(d.Test.Len() / 2)
	n := tt.Len()
	if nm.Len() < n {
		n = nm.Len()
	}
	members, _ := tt.Split(n)
	nonMembers, _ := nm.Split(n)

	rng := rand.New(rand.NewSource(*seed))
	var shadow attacks.ShadowBundle
	needShadow := *attackName == "nn" || *attackName == "pbbayes" || *attackName == "all"
	if needShadow {
		build := func() nn.Layer {
			return model.NewClassifier(rand.New(rand.NewSource(*seed+1)), flcli.ArchFor(a.Preset),
				d.Train.In, d.Train.NumClasses)
		}
		shadow, err = attacks.TrainShadow(build, st, sx, *shadowEpochs, 0.05,
			rand.New(rand.NewSource(*seed+2)))
		if err != nil {
			return err
		}
	}

	runners := map[string]func() attacks.Result{
		"label":   func() attacks.Result { return attacks.ObLabel(net, members, nonMembers) },
		"malt":    func() attacks.Result { return attacks.ObMALT(net, members, nonMembers) },
		"nn":      func() attacks.Result { return attacks.ObNN(net, members, nonMembers, shadow, rng) },
		"blindmi": func() attacks.Result { return attacks.ObBlindMI(net, members, nonMembers, rng) },
		"pbbayes": func() attacks.Result { return attacks.PbBayes(net, members, nonMembers, shadow, rng) },
	}
	names := []string{*attackName}
	if *attackName == "all" {
		names = []string{"label", "malt", "nn", "blindmi", "pbbayes"}
	}
	for _, name := range names {
		r, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown attack %q (want %s)", name,
				strings.Join([]string{"label", "malt", "nn", "blindmi", "pbbayes", "all"}, ", "))
		}
		res := r()
		fmt.Printf("%-8s %s\n", name, res)
	}
	return nil
}
