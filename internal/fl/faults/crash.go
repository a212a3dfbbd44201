package faults

import (
	"errors"
	"fmt"
	"os"
)

// ErrCrash is the sentinel a CrashAt hook returns to simulate process
// death at a round boundary. The crash-recovery harness kills the run with
// it, rebuilds the federation from scratch, resumes from the last durable
// snapshot, and asserts bit-identical final parameters.
var ErrCrash = errors.New("faults: injected crash")

// CrashAt returns an AfterRound hook (fl.RunOptions.AfterRound,
// transport.Coordinator.AfterRound) that simulates process death
// immediately after round n completes — after that round's checkpoint
// write, if the cadence scheduled one.
func CrashAt(n int) func(round int) error {
	return func(round int) error {
		if round == n {
			return fmt.Errorf("%w after round %d", ErrCrash, n)
		}
		return nil
	}
}

// Truncated returns a checkpoint.Manager write hook that simulates a torn
// write: only the leading frac of the encoded snapshot reaches the disk.
// frac is clamped to [0, 1].
func Truncated(frac float64) func([]byte) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return func(data []byte) []byte {
		return data[:int(frac*float64(len(data)))]
	}
}

// BitFlip returns a checkpoint.Manager write hook that flips one bit of the
// encoded snapshot at the given byte offset (taken modulo the snapshot
// length), simulating silent media corruption the CRC must catch.
func BitFlip(offset int) func([]byte) []byte {
	return func(data []byte) []byte {
		if len(data) == 0 {
			return data
		}
		out := append([]byte(nil), data...)
		i := offset % len(out)
		if i < 0 {
			i += len(out)
		}
		out[i] ^= 0x40
		return out
	}
}

// CorruptFile flips one bit of an existing file in place — the post-hoc
// variant of BitFlip for tests that corrupt a snapshot already on disk.
func CorruptFile(path string, offset int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faults: %s is empty", path)
	}
	i := offset % len(data)
	if i < 0 {
		i += len(data)
	}
	data[i] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}
