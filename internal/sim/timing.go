package sim

import (
	"fmt"

	"tlbprefetch/internal/memsys"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
)

// TimingConfig extends Config with the cycle model of the paper's Table 3
// experiment.
type TimingConfig struct {
	Config
	// MissPenalty is the constant TLB miss cost for a demand fetch
	// (paper: 100 cycles).
	MissPenalty uint64
	// BufferHitPenalty is the portion of the miss cost a prefetch-buffer
	// hit still pays — the pipeline restart and TLB fill, everything but
	// the page table walk. The paper's Table 3 deltas (DP saves 1-14%
	// despite 0.5-0.9 accuracy) imply a substantial residual cost per
	// satisfied miss; 65 cycles lands the no-prefetch -> DP deltas in the
	// published band.
	BufferHitPenalty uint64
	// MemOpLatency is the cost of each prefetch-related memory operation —
	// pointer manipulation or prefetch fetch (paper: 50 cycles).
	MemOpLatency uint64
	// MemOpOccupancy is how long each operation blocks the prefetch
	// channel before the next may start. 0 means fully serialized
	// (= MemOpLatency, one outstanding request); smaller values model the
	// pipelined memory interface of an out-of-order core.
	MemOpOccupancy uint64
	// CyclesPerRef is the base cost of a reference with a TLB hit, and
	// RefsPerCycle lets several references retire per cycle (0 means 1).
	// The paper runs a 4-issue out-of-order core, which both overlaps
	// instruction work (RefsPerCycle > 1) and pipelines its memory
	// interface (MemOpOccupancy < MemOpLatency); the Table 3 calibration
	// in experiments.Table3 picks the values that land the no-prefetch
	// baseline and the RP/DP deltas in the published band.
	CyclesPerRef uint64
	RefsPerCycle uint64
	// RPSkipWhenBusy enables the paper's benefit-of-the-doubt rule for RP:
	// when the prefetch channel is still busy at miss time, RP performs
	// only its stack update (4 pointer ops) and skips the two neighbour
	// fetches. Mechanisms other than RP are unaffected.
	RPSkipWhenBusy bool
}

// DefaultTiming returns the paper's Table 3 constants on top of the default
// functional configuration.
func DefaultTiming() TimingConfig {
	return TimingConfig{
		Config:           Default(),
		MissPenalty:      100,
		BufferHitPenalty: 65,
		MemOpLatency:     50,
		MemOpOccupancy:   12,
		CyclesPerRef:     1,
		RefsPerCycle:     2,
		RPSkipWhenBusy:   true,
	}
}

// ScaledTiming returns the default cycle model re-calibrated to a
// different TLB miss penalty, scaling the costs defined as fractions of a
// page-table walk: the prefetch memory-op latency keeps the paper's 1:2
// ratio, the buffer-hit residual its 65%, and the channel occupancy its
// pipelining ratio — so a satisfied miss stays cheaper than an
// unmitigated one at every point of a latency-sensitivity axis.
func ScaledTiming(missPenalty uint64) TimingConfig {
	c := DefaultTiming()
	ref := c.MissPenalty
	c.MissPenalty = missPenalty
	c.MemOpLatency = missPenalty * c.MemOpLatency / ref
	c.BufferHitPenalty = missPenalty * c.BufferHitPenalty / ref
	c.MemOpOccupancy = missPenalty * c.MemOpOccupancy / ref
	if c.MemOpLatency == 0 {
		c.MemOpLatency = 1
	}
	if c.MemOpOccupancy == 0 {
		c.MemOpOccupancy = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c TimingConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.MissPenalty == 0 || c.MemOpLatency == 0 || c.CyclesPerRef == 0 {
		return fmt.Errorf("sim: timing constants must be positive (penalty=%d, memop=%d, perRef=%d)",
			c.MissPenalty, c.MemOpLatency, c.CyclesPerRef)
	}
	if c.MemOpOccupancy > c.MemOpLatency {
		return fmt.Errorf("sim: MemOpOccupancy %d exceeds MemOpLatency %d (an operation cannot block the channel longer than it takes)",
			c.MemOpOccupancy, c.MemOpLatency)
	}
	return nil
}

// TimingStats extends Stats with cycle accounting.
type TimingStats struct {
	Stats
	Cycles       uint64 // total execution cycles
	StallCycles  uint64 // cycles stalled on TLB misses (demand + in-flight waits)
	InFlightHits uint64 // buffer hits that had to wait for the prefetch to land
	SkippedPref  uint64 // prefetch batches skipped by the RP busy rule
}

// CPI returns cycles per reference.
func (s TimingStats) CPI() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Refs)
}

// costModel is the cycle accounting of the paper's Table 3 experiment,
// attached to a Simulator by NewTiming and consulted only on the miss
// path. The prefetch channel serializes metadata and prefetch operations;
// demand fetches cost the fixed miss penalty and do not contend with
// prefetch traffic (the paper's RP-favouring assumption).
//
// The clock is not state. Every reference costs CyclesPerRef per
// RefsPerCycle references and every miss adds its stall, so the clock at
// the k-th reference is
//
//	CyclesPerRef·⌊k/RefsPerCycle⌋ + (stalls of the misses before it)
//
// and a TLB hit needs no cycle bookkeeping at all: the hit path of a timed
// simulator is the functional one.
type costModel struct {
	cfg  TimingConfig
	rpc  uint64 // RefsPerCycle, 0 spelled as 1
	ch   *memsys.Channel
	isRP bool // the busy-channel skip rule applies (found by name: wrappers forward it)

	stall, inFlightHits, skippedPref uint64
	issuable                         []bool // per-miss scratch, sized to the prefetch batch
}

// cycles is the clock after refs references.
func (c *costModel) cycles(refs uint64) uint64 {
	return c.cfg.CyclesPerRef*(refs/c.rpc) + c.stall
}

// miss charges the stall of a TLB miss on the ord-th reference and issues
// the mechanism's prefetches over the channel, in place of the functional
// issue loop in Simulator.miss. t is the TLB duplicates are checked
// against (see Simulator.miss).
func (c *costModel) miss(s *Simulator, t *tlb.TLB, act prefetch.Action, bufferHit bool, readyAt, ord uint64) {
	now := c.cycles(ord)
	if bufferHit {
		// A hit stalls for whichever is longer: the in-flight wait until
		// the prefetch actually arrives ("it is made to stall until the
		// entry arrives"), or the residual fill/restart cost — the two
		// overlap in the pipeline, so the hit pays their maximum.
		stall := c.cfg.BufferHitPenalty
		if readyAt > now && readyAt-now > stall {
			stall = readyAt - now
			c.inFlightHits++
		}
		c.stall += stall
		now += stall
	} else {
		c.stall += c.cfg.MissPenalty
		now += c.cfg.MissPenalty
	}

	// RP's skip rule: when earlier prefetch traffic is still in flight,
	// update the stack but do not fetch the neighbours ("there would be
	// only 4 memory transactions instead of 6").
	prefetches := act.Prefetches
	if c.isRP && c.cfg.RPSkipWhenBusy && len(prefetches) > 0 && c.ch.Busy(now) {
		prefetches = nil
		c.skippedPref++
	}

	// Metadata operations occupy the channel first (RP updates the stack
	// before prefetching), then the prefetch fetches complete one by one.
	// Issuability is decided once, up front — unlike the functional loop,
	// which checks each prefetch after inserting the previous ones: an
	// insertion below may evict a buffer entry that a later prefetch in
	// this batch duplicates, and that later prefetch must still be treated
	// as the duplicate it was at issue time.
	if cap(c.issuable) < len(prefetches) {
		c.issuable = make([]bool, len(prefetches))
	}
	issuable := c.issuable[:len(prefetches)]
	n := 0
	for i, p := range prefetches {
		issuable[i] = !t.Contains(p) && !s.buf.Contains(p)
		if issuable[i] {
			n++
		}
	}
	after := c.ch.Issue(now, act.StateMemOps)
	completions := c.ch.IssueEach(after, n)

	ci := 0
	for i, p := range prefetches {
		s.stat.PrefetchesRequested++
		if !issuable[i] {
			s.stat.PrefetchDuplicates++
			continue
		}
		s.buf.Insert(p, completions[ci])
		ci++
		s.stat.PrefetchesIssued++
	}
}

// reset returns the channel and the cycle counters to the initial state.
func (c *costModel) reset() {
	c.ch.Reset()
	c.stall, c.inFlightHits, c.skippedPref = 0, 0, 0
}

// TimingSimulator is a Simulator with the cycle model attached: the same
// pipeline, reference loops and Group membership (add its Simulator to a
// Group), plus the TimingStats snapshot. It has no statistics
// fast-forward: ResetStats panics on it.
type TimingSimulator struct {
	*Simulator
}

// NewTiming builds a timing simulator. A nil mechanism is the
// no-prefetching baseline. It panics on invalid configuration.
func NewTiming(cfg TimingConfig, pf prefetch.Prefetcher) *TimingSimulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := New(cfg.Config, pf)
	occ := cfg.MemOpOccupancy
	if occ == 0 {
		occ = cfg.MemOpLatency
	}
	s.cost = &costModel{
		cfg:  cfg,
		rpc:  max(cfg.RefsPerCycle, 1),
		ch:   memsys.NewPipelinedChannel(cfg.MemOpLatency, occ),
		isRP: s.pf.Name() == "RP",
	}
	return &TimingSimulator{s}
}

// Stats returns a snapshot including the cycle counters. As in the
// functional simulator, PrefetchesUnused includes the entries still
// resident (never used) in the buffer at snapshot time.
func (s *TimingSimulator) Stats() TimingStats {
	st := s.Simulator.Stats()
	c := s.cost
	return TimingStats{
		Stats:        st,
		Cycles:       c.cycles(st.Refs),
		StallCycles:  c.stall,
		InFlightHits: c.inFlightHits,
		SkippedPref:  c.skippedPref,
	}
}
