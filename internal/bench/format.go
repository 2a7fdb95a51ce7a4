package bench

import (
	"fmt"
	"strings"
	"time"
)

// FormatTable2 renders the Table 2 rows.
func FormatTable2(rows []DatasetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Datasets\n")
	fmt.Fprintf(&b, "%-16s %10s %6s %9s %10s\n", "data set", "instances", "dim", "clusters", "r")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %6d %9d %10.3g\n", r.Name, r.Instances, r.Dim, r.Clusters, r.Radius)
	}
	return b.String()
}

// FormatFig6 renders the SDS snapshot summaries.
func FormatFig6(snaps []SDSSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: SDS snapshots (clusters and density peaks over time)\n")
	fmt.Fprintf(&b, "%8s %9s %12s %9s  %s\n", "t (s)", "clusters", "active cells", "outliers", "peak seeds")
	for _, s := range snaps {
		var peaks []string
		for _, p := range s.PeakSeeds {
			if len(p) >= 2 {
				peaks = append(peaks, fmt.Sprintf("(%.1f,%.1f)", p[0], p[1]))
			}
		}
		fmt.Fprintf(&b, "%8.1f %9d %12d %9d  %s\n", s.Time, s.Clusters, s.ActiveCells, s.Outliers, strings.Join(peaks, " "))
	}
	return b.String()
}

// FormatEvents renders an evolution log (Fig. 7 / Fig. 8 content).
func FormatEvents(title string, events []interface{ String() string }) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	for _, e := range events {
		fmt.Fprintf(&b, "  %s\n", e.String())
	}
	return b.String()
}

// FormatComparisonResponseTime renders the Fig. 9 series: average
// cluster-update response time per algorithm over stream length.
func FormatComparisonResponseTime(dataset string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 (%s): response time per cluster update\n", dataset)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-10s mean=%s series=", r.Algorithm, formatDuration(r.MeanResponseTime))
		for _, s := range r.Samples {
			fmt.Fprintf(&b, "(%d pts: %s) ", s.Points, formatDuration(s.ResponseTime))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatComparisonThroughput renders the Fig. 10 series.
func FormatComparisonThroughput(dataset string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 (%s): throughput (points/second)\n", dataset)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-10s mean=%.0f pt/s series=", r.Algorithm, r.MeanThroughput)
		for _, s := range r.Samples {
			fmt.Fprintf(&b, "(%d pts: %.0f) ", s.Points, s.Throughput)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatComparisonCMM renders the Fig. 13 series.
func FormatComparisonCMM(dataset string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 (%s): cluster quality (CMM)\n", dataset)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-10s mean=%.3f series=", r.Algorithm, r.MeanCMM)
		for _, s := range r.Samples {
			fmt.Fprintf(&b, "(%d pts: %.3f) ", s.Points, s.CMM)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig11 renders the filter comparison.
func FormatFig11(dataset string, results []FilterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 (%s): accumulated dependency-update time\n", dataset)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-7s total=%s candidates=%d filtered(df)=%d filtered(tif)=%d series=",
			r.Mode, formatDuration(r.Accumulated), r.Candidates, r.FilteredByDensity, r.FilteredByTriangle)
		for _, s := range r.Samples {
			fmt.Fprintf(&b, "(%d pts: %s) ", s.Points, formatDuration(s.Accumulated))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig12 renders the dimensionality sweep.
func FormatFig12(results []DimensionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12: response time vs dimensionality (HDS)\n")
	fmt.Fprintf(&b, "%6s", "dim")
	if len(results) > 0 {
		for _, r := range results[0].Results {
			fmt.Fprintf(&b, " %12s", r.Algorithm)
		}
	}
	fmt.Fprintln(&b)
	for _, dr := range results {
		fmt.Fprintf(&b, "%6d", dr.Dim)
		for _, r := range dr.Results {
			fmt.Fprintf(&b, " %12s", formatDuration(r.MeanResponseTime))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig14 renders the rate sweep.
func FormatFig14(results []RateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14: EDMStream cluster quality vs stream rate (CoverType-like)\n")
	fmt.Fprintf(&b, "%10s %10s %14s\n", "rate", "mean CMM", "response time")
	for _, r := range results {
		fmt.Fprintf(&b, "%10.0f %10.3f %14s\n", r.Rate, r.Result.MeanCMM, formatDuration(r.Result.MeanResponseTime))
	}
	return b.String()
}

// FormatTable4 renders the dynamic vs static τ comparison.
func FormatTable4(tc TauComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 / Fig. 15: number of clusters over time (SDS), dynamic vs static τ\n")
	fmt.Fprintf(&b, "static τ = %.3f\n", tc.StaticTau)
	fmt.Fprintf(&b, "%8s %12s %12s %12s\n", "t (s)", "dynamic τ", "#dynamic", "#static")
	for i := range tc.Seconds {
		fmt.Fprintf(&b, "%8.0f %12.3f %12d %12d\n", tc.Seconds[i], tc.DynamicTau[i], tc.DynamicClusters[i], tc.StaticClusters[i])
	}
	fmt.Fprintf(&b, "decision graph at init: %d cells\n", len(tc.InitGraph))
	return b.String()
}

// FormatFig16 renders the reservoir-size experiment.
func FormatFig16(dataset string, results []ReservoirResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 16 (%s): outlier reservoir size vs theoretical bound\n", dataset)
	for _, r := range results {
		fmt.Fprintf(&b, "  rate=%.0f/s bound=%.0f max=%d series=", r.Rate, r.Bound, r.MaxSize)
		for _, s := range r.Samples {
			fmt.Fprintf(&b, "(%d pts: %d) ", s.Points, s.Size)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig17 renders the radius sweep.
func FormatFig17(results []RadiusResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 17: effect of cluster-cell radius r (PAMAP2-like)\n")
	fmt.Fprintf(&b, "%10s %10s %10s %14s %12s\n", "quantile", "r", "mean CMM", "response time", "active cells")
	for _, r := range results {
		fmt.Fprintf(&b, "%9.1f%% %10.3g %10.3f %14s %12d\n", r.Quantile*100, r.Radius, r.MeanCMM, formatDuration(r.MeanResponse), r.ActiveCells)
	}
	return b.String()
}

// FormatAblation renders the extra design-choice studies.
func FormatAblation(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (beyond the paper)\n")
	fmt.Fprintf(&b, "%-18s %-24s %10s %14s %9s\n", "study", "variant", "mean CMM", "response time", "clusters")
	for _, r := range results {
		fmt.Fprintf(&b, "%-18s %-24s %10.3f %14s %9d\n", r.Study, r.Variant, r.MeanCMM, formatDuration(r.MeanResponse), r.Clusters)
	}
	return b.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
