package flcli

import (
	"flag"
	"fmt"

	"github.com/cip-fl/cip/internal/fl/compress"
)

// CompressFlags bundles the update-compression flags flclient and ciptrain
// share. Register on the default flag set before flag.Parse, then Config
// or Bank after.
type CompressFlags struct {
	Mode     *string
	TopKFrac *float64
}

// RegisterCompressFlags installs -compress and -topk-frac on the default
// flag set.
func RegisterCompressFlags() *CompressFlags {
	return &CompressFlags{
		Mode: flag.String("compress", "",
			"update compression: topk, q8/int8, q16/int16, topk8, topk16; empty sends dense updates"),
		TopKFrac: flag.Float64("topk-frac", compress.DefaultTopKFrac,
			"fraction of coordinates the top-k modes keep, in (0, 1]"),
	}
}

// Config turns the parsed flags into a compression config (Mode None when
// -compress is empty). The mode string is normalized, so aliases like
// int8 reach the wire handshake in canonical form.
func (cf *CompressFlags) Config() (compress.Config, error) {
	mode, err := compress.ParseMode(*cf.Mode)
	if err != nil {
		return compress.Config{}, err
	}
	if *cf.TopKFrac <= 0 || *cf.TopKFrac > 1 {
		return compress.Config{}, fmt.Errorf("-topk-frac %v out of range (0, 1]", *cf.TopKFrac)
	}
	return compress.Config{Mode: mode, TopKFrac: *cf.TopKFrac}.WithDefaults(), nil
}

// Bank builds the server-side error-feedback bank for the in-process
// engine, or nil when compression is off.
func (cf *CompressFlags) Bank() (*compress.Bank, error) {
	cfg, err := cf.Config()
	if err != nil || cfg.Mode == compress.None {
		return nil, err
	}
	return compress.NewBank(cfg), nil
}
