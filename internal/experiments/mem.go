package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"dkindex/internal/core"
	"dkindex/internal/index"
)

// MemRow reports the resident footprint of one summary's extents under the
// succinct set encoding, against the raw []NodeID cost the same extents would
// occupy uncompressed, and of its label lists, which are stored raw.
type MemRow struct {
	Index      string
	IndexNodes int
	DataNodes  int
	// Extent-side resident bytes split by physical encoding (payload plus
	// per-container bookkeeping).
	ExtentSparse int
	ExtentDense  int
	// ExtentRaw is slice header + 4 bytes per member for every extent.
	ExtentRaw int
	// Postings is the label lists' payload: 4 bytes per index node.
	Postings int
}

// Resident is the total footprint of extents and label lists.
func (r MemRow) Resident() int { return r.ExtentSparse + r.ExtentDense + r.Postings }

// Raw is the total footprint with the extents uncompressed.
func (r MemRow) Raw() int { return r.ExtentRaw + r.Postings }

// Ratio is raw/resident — how many times smaller the succinct encoding is.
func (r MemRow) Ratio() float64 {
	if r.Resident() == 0 {
		return 0
	}
	return float64(r.Raw()) / float64(r.Resident())
}

// BytesPerNode is the resident set bytes charged per data node.
func (r MemRow) BytesPerNode() float64 {
	if r.DataNodes == 0 {
		return 0
	}
	return float64(r.Resident()) / float64(r.DataNodes)
}

// MemoryFootprint measures the set footprint across the summary family the
// construction experiments build: the 1-index, A(maxK), and the load-tuned
// D(k). Extents of a coarser summary are fewer but individually larger, so
// the three rows exercise both physical encodings.
func MemoryFootprint(ds *Dataset, maxK int) []MemRow {
	if maxK <= 0 {
		maxK = ds.W.MaxLength()
	}
	row := func(name string, ig *index.IndexGraph) MemRow {
		ms := ig.MemStats()
		return MemRow{
			Index:        name,
			IndexNodes:   ig.NumNodes(),
			DataNodes:    ds.G.NumNodes(),
			ExtentSparse: ms.Extents.SparseTotal(),
			ExtentDense:  ms.Extents.DenseTotal(),
			ExtentRaw:    ms.ExtentRawBytes,
			Postings:     ms.PostingBytes(),
		}
	}
	var rows []MemRow
	rows = append(rows, row("1-index", index.Build1Index(ds.G)))
	rows = append(rows, row(fmt.Sprintf("A(%d)", maxK), index.BuildAK(ds.G, maxK)))
	rows = append(rows, row("D(k)", core.Build(ds.G, ds.W.Requirements()).IG))
	return rows
}

// RenderMemRows prints the memory-footprint table.
func RenderMemRows(w io.Writer, title string, rows []MemRow) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "index\tsize(nodes)\text sparse\text dense\tpostings\tresident\traw\tratio\tB/node")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.2fx\t%.2f\n",
			r.Index, r.IndexNodes, r.ExtentSparse, r.ExtentDense,
			r.Postings, r.Resident(), r.Raw(), r.Ratio(), r.BytesPerNode())
	}
	return tw.Flush()
}

// WriteMemRowsCSV emits the memory-footprint rows as CSV.
func WriteMemRowsCSV(w io.Writer, rows []MemRow) error {
	if _, err := fmt.Fprintln(w, "index,index_nodes,data_nodes,extent_sparse,extent_dense,postings,resident,raw,ratio,bytes_per_node"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f\n",
			r.Index, r.IndexNodes, r.DataNodes, r.ExtentSparse, r.ExtentDense,
			r.Postings, r.Resident(), r.Raw(), r.Ratio(), r.BytesPerNode()); err != nil {
			return err
		}
	}
	return nil
}
