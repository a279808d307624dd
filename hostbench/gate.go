package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
)

// figuresTextSHA256 pins the figures workload's rendered text: the
// SHA-256 of `experiments -q all` stdout at the default options.
const figuresTextSHA256 = "e6539d5c220d0fd078be0b5e0f5c5c7983b8a25f4050c12d16703c998fb3a6ba"

// figuresReportSHA256 pins the report figures (text, CSV and SVG) the
// figures workload renders from the same results.
const figuresReportSHA256 = "4ff6d58702b00bb4a1d2ae344a71e936b8682fc96bb8b082aff3ec7bc3b13d16"

// gridPins holds, for seed 0, the stats fingerprint of every grid cell as
// "workload|mech fingerprint" lines. grid-trace cells must match too: a
// trace replays the very stream its synthetic cell generates.
//
//go:embed pins/grid_seed0.txt
var gridPins string

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func statsFingerprint(r sweep.Result) string {
	fp, err := stats.Fingerprint(r.Stats)
	if err != nil {
		panic(err) // sim.Stats holds only integers
	}
	return fp
}

func parsePins(text string) map[string]string {
	pins := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			pins[f[0]] = f[1]
		}
	}
	return pins
}

// writePins records the fingerprints of one grid run in the gridPins
// format.
func writePins(path string, labels map[string]string, rs []sweep.Result) error {
	var lines []string
	for _, r := range rs {
		lines = append(lines, labels[r.Key.Hash()]+" "+statsFingerprint(r))
	}
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// gate is the correctness check behind failed_ratio. The first cold phase
// becomes the reference — checked against the pins where the seed has
// them — and every later phase (cold, cached, traced) must reproduce each
// reference cell byte for byte and render the same bytes.
type gate struct {
	attempted, failed int
	problems          []string

	ref              map[string][]byte // key hash → canonical result JSON
	refText, refFigs []byte

	// pinCell checks a reference cell against its pin; nil when the seed
	// pins no cells.
	pinCell func(r sweep.Result) error
	// pinText checks the reference rendering; nil when nothing is pinned.
	pinText func(text, figs []byte) error
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.problems) < 10 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// cells checks one phase's cells. Every reference cell must be present.
func (g *gate) cells(what string, rs []sweep.Result) error {
	first := g.ref == nil
	if first {
		g.ref = map[string][]byte{}
	}
	seen := map[string]bool{}
	for _, r := range rs {
		g.attempted++
		b, err := stats.Canonical(r)
		if err != nil {
			return err
		}
		h := r.Key.Hash()
		seen[h] = true
		if first {
			if g.pinCell != nil {
				if err := g.pinCell(r); err != nil {
					g.fail("%s: %v", what, err)
				}
			}
			g.ref[h] = b
			continue
		}
		if want, ok := g.ref[h]; !ok {
			g.fail("%s: cell %.12s… is not in the reference", what, h)
		} else if !bytes.Equal(want, b) {
			g.fail("%s: cell %s/%s differs from the reference", what, r.Key.SourceLabel(), r.Key.Mech.Label())
		}
	}
	for h := range g.ref {
		if !seen[h] {
			g.attempted++
			g.fail("%s: reference cell %.12s… is missing", what, h)
		}
	}
	return nil
}

// rendered checks one phase's rendered bytes (one attempt).
func (g *gate) rendered(what string, text, figs []byte) {
	g.attempted++
	if g.refText == nil {
		g.refText, g.refFigs = text, figs
		if g.pinText != nil {
			if err := g.pinText(text, figs); err != nil {
				g.fail("%s: %v", what, err)
			}
		}
		return
	}
	if !bytes.Equal(text, g.refText) || !bytes.Equal(figs, g.refFigs) {
		g.fail("%s: rendered output differs from the reference", what)
	}
}

// phase collects and checks everything a phase produced.
func (g *gate) phase(what string, p phase) error {
	rs, err := p.collect()
	if err != nil {
		return err
	}
	if err := g.cells(what, rs); err != nil {
		return err
	}
	g.rendered(what, p.rendered, p.figures)
	return nil
}

// sameStats checks that every cell of got has the stats of the cell with
// the same label in want (grid-trace against grid-synth).
func (g *gate) sameStats(what string, got []sweep.Result, gotLabels map[string]string, want []sweep.Result, wantLabels map[string]string) {
	byLabel := map[string]string{}
	for _, r := range want {
		byLabel[wantLabels[r.Key.Hash()]] = statsFingerprint(r)
	}
	for _, r := range got {
		g.attempted++
		l := gotLabels[r.Key.Hash()]
		if fp, ok := byLabel[l]; !ok || fp != statsFingerprint(r) {
			g.fail("%s: cell %s differs from its synthetic cell", what, l)
		}
	}
}

// pinGridCells returns a pin check over the seed-0 grid pins. The cell
// labels are taken on first use: grid-trace keys carry the digests of
// traces recorded during set-up.
func pinGridCells(cellLabels func() map[string]string) func(sweep.Result) error {
	pins := parsePins(gridPins)
	var labels map[string]string
	return func(r sweep.Result) error {
		if labels == nil {
			labels = cellLabels()
		}
		l, ok := labels[r.Key.Hash()]
		if !ok {
			return fmt.Errorf("cell %.12s… is not a grid cell", r.Key.Hash())
		}
		want, ok := pins[l]
		if !ok {
			return fmt.Errorf("cell %s has no pin", l)
		}
		if got := statsFingerprint(r); got != want {
			return fmt.Errorf("cell %s stats fingerprint %.12s…, pinned %.12s…", l, got, want)
		}
		return nil
	}
}

func pinFigures(text, figs []byte) error {
	if got := sha(text); got != figuresTextSHA256 {
		return fmt.Errorf("rendered text SHA-256 %s, `experiments -q all` pins %s", got, figuresTextSHA256)
	}
	if got := sha(figs); got != figuresReportSHA256 {
		return fmt.Errorf("report figures SHA-256 %s, pinned %s", got, figuresReportSHA256)
	}
	return nil
}
