package main

import (
	"strings"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/report"
)

// experimentOut is what one experiment call leaves to render: its text
// block, exactly as `experiments -q <name>` prints it, and, for the
// figure experiments, its report figures.
type experimentOut struct {
	text func() string
	figs func() []*report.Figure
}

// experiment is one entry of `experiments all`.
type experiment struct {
	name string
	run  func(experiments.Options) experimentOut
}

func textOnly(s func() string) experimentOut { return experimentOut{text: s} }

// allExperiments mirrors cmd/experiments: the "all" order, the title lines
// and the Format* call of each experiment. The figures workload's rendered
// text must hash to the same SHA-256 as `experiments -q all` stdout.
var allExperiments = []experiment{
	{"table1", func(o experiments.Options) experimentOut {
		s := experiments.Table1(o)
		return textOnly(func() string { return "Table 1: hardware comparison at a glance\n" + s })
	}},
	{"fig7", func(o experiments.Options) experimentOut {
		res := experiments.Fig7(o)
		return experimentOut{
			text: func() string {
				return "Figure 7: prediction accuracy, SPEC CPU2000\n" + experiments.FormatFigure(res)
			},
			figs: func() []*report.Figure {
				return []*report.Figure{experiments.FigureFromApps("Figure 7: prediction accuracy, SPEC CPU2000", res)}
			},
		}
	}},
	{"fig8", func(o experiments.Options) experimentOut {
		res := experiments.Fig8(o)
		const title = "Figure 8: prediction accuracy, MediaBench / Etch / Pointer-Intensive"
		return experimentOut{
			text: func() string { return title + "\n" + experiments.FormatFigure(res) },
			figs: func() []*report.Figure { return []*report.Figure{experiments.FigureFromApps(title, res)} },
		}
	}},
	{"table2", func(o experiments.Options) experimentOut {
		res := experiments.Table2(o)
		return textOnly(func() string {
			return "Table 2: average and miss-rate-weighted prediction accuracy (56 apps, s=2, r=256)\n" +
				experiments.FormatTable2(res)
		})
	}},
	{"table3", func(o experiments.Options) experimentOut {
		res := experiments.Table3(o)
		return textOnly(func() string { return experiments.FormatTable3(res) })
	}},
	{"fig9", func(o experiments.Options) experimentOut {
		res := experiments.Fig9(o)
		return experimentOut{
			text: func() string { return experiments.FormatFig9(res) },
			figs: func() []*report.Figure { return experiments.Fig9Figures(res) },
		}
	}},
	{"ext-dpvariants", func(o experiments.Options) experimentOut {
		res := experiments.ExtDPVariants(o)
		return textOnly(func() string {
			return "Extension A: DP indexing variants (paper §4 future work)\n" + experiments.FormatExtDPVariants(res)
		})
	}},
	{"ext-cache", func(o experiments.Options) experimentOut {
		res := experiments.ExtCache(o)
		return textOnly(func() string {
			return "Extension B: distance prefetching at the cache level\n" + experiments.FormatExtCache(res)
		})
	}},
	{"ext-multiprog", func(o experiments.Options) experimentOut {
		res := experiments.ExtMultiprog(o)
		return textOnly(func() string {
			return "Extension C: multiprogramming — flush vs retain prediction tables\n" + experiments.FormatExtMultiprog(res)
		})
	}},
	{"ext-pagesize", func(o experiments.Options) experimentOut {
		res := experiments.ExtPageSize(o)
		return textOnly(func() string {
			return "Extension D: page-size sensitivity of DP\n" + experiments.FormatExtPageSize(res)
		})
	}},
	{"ext-tlbassoc", func(o experiments.Options) experimentOut {
		res := experiments.ExtTLBAssoc(o)
		return textOnly(func() string {
			return "Extension E: TLB-associativity sensitivity of DP\n" + experiments.FormatExtTLBAssoc(res)
		})
	}},
	{"ext-modern", func(o experiments.Options) experimentOut {
		res := experiments.ExtModern(o)
		return experimentOut{
			text: func() string {
				return "Extension F: 2002 mechanisms vs modern successors (STMS, MASP, SBFP)\n" + experiments.FormatExtModern(res)
			},
			figs: func() []*report.Figure { return []*report.Figure{experiments.ExtModernFigure(res)} },
		}
	}},
}

// renderFigures renders every report figure the experiments produced in
// the three formats cmd/experiments -figure offers.
func renderFigures(outs []experimentOut) []byte {
	var figs []*report.Figure
	for _, o := range outs {
		if o.figs != nil {
			figs = append(figs, o.figs()...)
		}
	}
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.Text())
		b.WriteString(f.CSV())
	}
	b.WriteString(report.SVGDocument(figs...))
	return []byte(b.String())
}
