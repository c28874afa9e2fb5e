package scenario

import "fmt"

// Built-in scenarios: every figure and table of the paper's evaluation
// (§IV), expressed as data. `vnesim -exp NAME` looks NAME up here and
// renders the spec through sim.RunScenario; specs whose report titles
// name {topo} run once per topology. `vnesim -list` prints their
// descriptions. Patches write their keys in one fixed order (topology,
// utilization, planUtilization, shufflePlanIngress, lambdaPerNode,
// demandMeanOverride, trace, diurnalPeriod, appKind, gpu, algorithms,
// quantiles, planWindows, histSlots, onlineSlots, measureFrom, measureTo)
// and spell numbers as encoding/json does: a spec's hash covers its
// patches as written, and it keys every artifact the spec stores.

// Algorithm names as they appear in a patch's algorithms and in
// Column.Algo. They mirror internal/core's Algorithm constants;
// internal/sim validates them at binding time.
const (
	AlgoOLIVE   = "OLIVE"
	AlgoQuickG  = "QUICKG"
	AlgoFullG   = "FULLG"
	AlgoSlotOff = "SLOTOFF"
)

// ciCols builds one fixed-algorithm column per algorithm for a metric.
func ciCols(metric string, algos ...string) []Column {
	cols := make([]Column, len(algos))
	for i, a := range algos {
		cols[i] = Column{Header: a, Metric: metric, Algo: a}
	}
	return cols
}

func init() {
	mustRegister(&Spec{
		Name:        "table2",
		Description: "Table II: topology inventory (nodes, links, tiers)",
		Static:      "topologies",
	})
	mustRegister(&Spec{
		Name:        "table3",
		Description: "Table III: experimental settings as realized by this reproduction",
		Static:      "settings",
	})

	mustRegister(&Spec{
		Name:        "fig6+7",
		Description: "Figs. 6/7: rejection rate and total cost vs utilization (OLIVE, QUICKG, SLOTOFF)",
		Axes:        []Axis{{Name: "util", ScaleUtils: true}},
		Reports: []Report{
			{
				Title:     "Fig. 6 ({topo}): rejection rate vs utilization",
				RowHeader: "util",
				Columns:   ciCols(MetricRejection, AlgoOLIVE, AlgoQuickG, AlgoSlotOff),
			},
			{
				Title:     "Fig. 7 ({topo}): total cost vs utilization",
				RowHeader: "util",
				Columns:   ciCols(MetricCost, AlgoOLIVE, AlgoQuickG, AlgoSlotOff),
			},
		},
	})

	mustRegister(&Spec{
		Name:        "fig8",
		Description: "Fig. 8: burst zoom — per-slot requested vs allocated demand, Iris @140%",
		Base:        Patch(`{"utilization":1.4}`),
		Detail: &Detail{
			View:     "slot-demand",
			Title:    "Fig. 8: allocated demand per slot, Iris @140%, slots {slots} (demand ÷100)",
			ZoomFrom: 200,
			ZoomLen:  30,
		},
	})

	mustRegister(&Spec{
		Name:        "fig9",
		Description: "Fig. 9: rejection rate by application type (chain, tree, accelerator, mix), Iris @100%",
		Base:        Patch(`{"algorithms":["OLIVE","QUICKG","FULLG","SLOTOFF"]}`),
		Axes: []Axis{{
			Name: "apps",
			Values: []AxisValue{
				{Label: "Chain", Patch: Patch(`{"appKind":"chain"}`)},
				{Label: "Tree", Patch: Patch(`{"appKind":"tree"}`)},
				{Label: "Acc", Patch: Patch(`{"appKind":"accelerator"}`)},
				{Label: "Mix"},
			},
		}},
		Reports: []Report{{
			Title:     "Fig. 9: rejection rate by application type, Iris @100%",
			RowHeader: "apps",
			Columns:   ciCols(MetricRejection, AlgoOLIVE, AlgoQuickG, AlgoFullG, AlgoSlotOff),
		}},
	})

	mustRegister(&Spec{
		Name:        "fig10",
		Description: "Fig. 10: GPU scenario — GPU/non-GPU datacenter split, GPU-chain applications",
		Base:        Patch(`{"gpu":true,"algorithms":["OLIVE","FULLG","SLOTOFF"]}`),
		Reports: []Report{{
			Title:     "Fig. 10: GPU scenario rejection rate, Iris @100%",
			RowHeader: "algorithm",
			Columns:   []Column{{Header: "rejection", Metric: MetricRejection}},
		}},
	})

	fig11Values := make([]AxisValue, 0, 5)
	for _, q := range []int{1, 2, 10, 50} {
		fig11Values = append(fig11Values, AxisValue{
			Label: fmt.Sprintf("OLIVE P=%d", q),
			Patch: Patch(fmt.Sprintf(`{"algorithms":["OLIVE"],"quantiles":%d}`, q)),
		})
	}
	fig11Values = append(fig11Values, AxisValue{
		Label: "QUICKG",
		Patch: Patch(`{"algorithms":["QUICKG"]}`),
	})
	mustRegister(&Spec{
		Name:        "fig11",
		Description: "Fig. 11: rejection balance index vs quantile count (OLIVE P=1,2,10,50; QUICKG), Iris @140%",
		Base:        Patch(`{"utilization":1.4}`),
		Axes:        []Axis{{Name: "variant", Values: fig11Values}},
		Reports: []Report{{
			Title:     "Fig. 11: rejection balance index by quantiles, Iris @140%",
			RowHeader: "variant",
			Columns:   []Column{{Header: "balance index", Metric: MetricBalance}},
		}},
	})

	mustRegister(&Spec{
		Name:        "fig12",
		Description: "Fig. 12: Franklin edge node — OLIVE guaranteed demand vs actual allocation, Iris @100%",
		Base:        Patch(`{"algorithms":["OLIVE"]}`),
		Detail: &Detail{
			View:  "node-breakdown",
			Title: "Fig. 12: Franklin node (Iris, MMPP) — OLIVE guaranteed demand vs actual allocation",
			Node:  "Franklin",
		},
	})

	mustRegister(&Spec{
		Name:        "fig13",
		Description: "Fig. 13: plan-deviation stressor — plans built for 60/100/140% demand, run @140%",
		Base:        Patch(`{"utilization":1.4}`),
		Axes: []Axis{{
			Name: "variant",
			Values: []AxisValue{
				{Label: "OLIVE (plan @60%)", Patch: Patch(`{"planUtilization":0.6,"algorithms":["OLIVE"]}`)},
				{Label: "OLIVE (plan @100%)", Patch: Patch(`{"planUtilization":1,"algorithms":["OLIVE"]}`)},
				{Label: "OLIVE (plan @140%)", Patch: Patch(`{"planUtilization":1.4,"algorithms":["OLIVE"]}`)},
				{Label: "", Patch: Patch(`{"algorithms":["QUICKG","SLOTOFF"]}`)},
			},
		}},
		Reports: []Report{{
			Title:     "Fig. 13: effect of deviation from plan, Iris @140%",
			RowHeader: "variant",
			Columns:   []Column{{Header: "rejection", Metric: MetricRejection}},
		}},
	})

	mustRegister(&Spec{
		Name:        "fig14",
		Description: "Fig. 14: spatial stressor — plan built from ingress-shuffled history",
		Base:        Patch(`{"shufflePlanIngress":true,"algorithms":["OLIVE","QUICKG"]}`),
		Axes:        []Axis{{Name: "util", ScaleUtils: true}},
		Reports: []Report{
			{
				Title:     "Fig. 14a: shifted plan requests, Iris — rejection rate",
				RowHeader: "util",
				Columns: []Column{
					{Header: "OLIVE(shifted)", Metric: MetricRejection, Algo: AlgoOLIVE},
					{Header: "QUICKG", Metric: MetricRejection, Algo: AlgoQuickG},
				},
			},
			{
				Title:     "Fig. 14b: shifted plan requests, Iris — total cost",
				RowHeader: "util",
				Columns: []Column{
					{Header: "OLIVE(shifted)", Metric: MetricCost, Algo: AlgoOLIVE},
					{Header: "QUICKG", Metric: MetricCost, Algo: AlgoQuickG},
				},
			},
		},
	})

	mustRegister(&Spec{
		Name:        "fig15",
		Description: "Fig. 15: CAIDA-like heavy-tailed trace — rejection rate and total cost, Iris",
		Base:        Patch(`{"trace":"caida"}`),
		Axes:        []Axis{{Name: "util", ScaleUtils: true}},
		Reports: []Report{
			{
				Title:     "Fig. 15a: CAIDA-like demand, Iris — rejection rate",
				RowHeader: "util",
				Columns:   ciCols(MetricRejection, AlgoOLIVE, AlgoQuickG, AlgoSlotOff),
			},
			{
				Title:     "Fig. 15b: CAIDA-like demand, Iris — total cost",
				RowHeader: "util",
				Columns:   ciCols(MetricCost, AlgoOLIVE, AlgoQuickG, AlgoSlotOff),
			},
		},
	})

	mustRegister(&Spec{
		Name:        "fig16a",
		Description: "Fig. 16a: runtime vs arrival rate (demand scaled to hold utilization), Iris @100%",
		Base:        Patch(`{"algorithms":["OLIVE","QUICKG"]}`),
		MaxReps:     3,
		Axes: []Axis{{
			Name:   "λ/node",
			Values: LambdaValues([]float64{5, 10, 20, 40}),
		}},
		Reports: []Report{{
			Title:     "Fig. 16a: runtime vs arrival rate, Iris @100% (seconds)",
			RowHeader: "λ/node",
			Columns: []Column{
				{Header: "req/slot", Metric: MetricReqPerSlot},
				{Header: "OLIVE", Metric: MetricRuntime, Algo: AlgoOLIVE},
				{Header: "QUICKG", Metric: MetricRuntime, Algo: AlgoQuickG},
			},
		}},
	})

	mustRegister(&Spec{
		Name:        "fig16",
		Description: "Figs. 16b–e: runtime vs utilization per topology (OLIVE vs QUICKG)",
		Base:        Patch(`{"algorithms":["OLIVE","QUICKG"]}`),
		MaxReps:     3,
		Axes:        []Axis{{Name: "util", ScaleUtils: true}},
		Reports: []Report{{
			Title:     "Fig. 16 ({topo}): runtime vs utilization (seconds)",
			RowHeader: "util",
			Columns: []Column{
				{Header: "OLIVE", Metric: MetricRuntime, Algo: AlgoOLIVE},
				{Header: "QUICKG", Metric: MetricRuntime, Algo: AlgoQuickG},
			},
		}},
	})
}
