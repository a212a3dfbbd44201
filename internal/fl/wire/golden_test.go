package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/compress"
	"github.com/cip-fl/cip/internal/fl/robust"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire fixtures")

// goldenVector is the fixed input behind every fixture. Values are exact
// in binary floating point so the fixtures are stable across platforms.
func goldenVector() []float64 {
	return []float64{0.5, -1.25, 3, 0, -0.0078125, 42.5, -6, 0.015625}
}

func goldenGlobal() []float64 {
	return []float64{1, 1, 1, 1, 1, 1, 1, 1}
}

// goldenFrames builds the committed conformance corpus: one frame per
// message type × compression mode, always from the same inputs. The
// "v1_" prefix is the header version; "v2_" names the only round and
// partial layouts left. Any byte-level change to the wire format shows up as a reviewed
// fixture diff instead of a silent incompatibility.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	sk := robust.NewSketch(4)
	for i := 1; i <= 3; i++ {
		row := goldenVector()
		for j := range row {
			row[j] *= 0.5 * float64(i) // exact in binary floating point
		}
		sk.Add(robust.KeyClient(i), row)
	}
	frames := map[string][]byte{
		"v1_done": AppendDoneFrame(nil),
		"v2_partial": AppendPartial2Frame(nil, fl.Partial{
			LeafID: 2, Round: 3, Sum: goldenVector(), Weight: 40, Count: 4,
			ExpectWeight: 48, Degraded: true, Sketch: sk,
		}),
		"v2_round": AppendRound2Frame(nil, Round2{
			Round: 3, Durable: 1, SampleFrac: 0.5, SampleSeed: 42,
			SketchCap: 64, Params: goldenVector(),
		}),
	}
	global := goldenGlobal()
	params := goldenVector()
	u := fl.Update{ClientID: 5, NumSamples: 17, TrainLoss: 0.375}
	for _, cfg := range allModes() {
		cfg := cfg.WithDefaults()
		var frame []byte
		var err error
		if cfg.Mode == compress.None {
			uu := u
			uu.Params = params
			frame, err = AppendUpdateFrame(nil, uu, nil, cfg.Mode)
		} else {
			delta := make([]float64, len(params))
			for i := range delta {
				delta[i] = params[i] - global[i]
			}
			var d *compress.Delta
			d, err = cfg.Compress(delta)
			if err == nil {
				frame, err = AppendUpdateFrame(nil, u, d, cfg.Mode)
			}
		}
		if err != nil {
			t.Fatalf("building %s fixture: %v", cfg.Mode, err)
		}
		frames[fmt.Sprintf("v1_update_%s", cfg.Mode)] = frame
	}
	return frames
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// TestGoldenWireFormat pins the exact bytes of every frame kind. A
// mismatch means the wire format changed: either bump Version and add new
// fixtures, or revert — never regenerate silently.
func TestGoldenWireFormat(t *testing.T) {
	frames := goldenFrames(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range frames {
			data := hex.EncodeToString(frame) + "\n"
			if err := os.WriteFile(goldenPath(name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, frame := range frames {
		raw, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("missing fixture %s (run with -update to create): %v", name, err)
		}
		want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			t.Fatalf("fixture %s is not hex: %v", name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoder output diverged from the committed wire format\n got %x\nwant %x",
				name, frame, want)
		}
	}
}

// TestGoldenFramesDecode proves every committed fixture still decodes —
// the other half of conformance: bytes written by any past version of the
// encoder must keep parsing.
func TestGoldenFramesDecode(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.hex"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found (%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		typ, mode, payload, err := readFrame(bytes.NewReader(frame), len(frame))
		if err != nil {
			t.Fatalf("%s: reading frame: %v", path, err)
		}
		switch typ {
		case MsgUpdate:
			u, err := DecodeUpdate(mode, payload)
			if err != nil {
				t.Errorf("%s: DecodeUpdate: %v", path, err)
				break
			}
			if _, err := fl.Densify(u, goldenGlobal()); err != nil {
				t.Errorf("%s: Densify: %v", path, err)
			}
		case MsgDone:
			if len(payload) != 0 {
				t.Errorf("%s: done frame carries %d payload bytes", path, len(payload))
			}
		case MsgPartial2:
			p, err := DecodePartial2(payload)
			if err != nil {
				t.Errorf("%s: DecodePartial2: %v", path, err)
				break
			}
			if err := fl.ValidatePartial(p, len(p.Sum), 0); err != nil {
				t.Errorf("%s: ValidatePartial: %v", path, err)
			}
		case MsgRound2:
			if _, err := DecodeRound2(payload); err != nil {
				t.Errorf("%s: DecodeRound2: %v", path, err)
			}
		}
	}
}
