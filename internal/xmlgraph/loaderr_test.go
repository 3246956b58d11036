package xmlgraph

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// failAfterReader yields its document and then fails with a non-EOF error,
// modeling a disk or network fault mid-parse.
type failAfterReader struct {
	r   io.Reader
	err error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

func TestLoadReaderErrorSurfaces(t *testing.T) {
	boom := errors.New("disk gone")
	g, rep, err := Load(&failAfterReader{r: strings.NewReader(`<a><b>`), err: boom}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if g != nil || rep != nil {
		t.Error("failed load must not return a partial graph or report")
	}
	if !strings.Contains(err.Error(), "xmlgraph:") {
		t.Errorf("error not attributed to the package: %v", err)
	}
}

func TestLoadReaderErrorAtFirstByte(t *testing.T) {
	boom := errors.New("cannot even start")
	if _, _, err := Load(&failAfterReader{r: strings.NewReader(""), err: boom}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestLoadTruncatedMidStream cuts documents at progressively nastier points:
// inside an attribute value, inside a tag, between elements. Every cut must
// produce an error, never a silently partial graph.
func TestLoadTruncatedMidStream(t *testing.T) {
	for _, doc := range []string{
		`<a><b attr="x`,       // cut inside an attribute value
		`<a><b`,               // cut inside a start tag
		`<a><b/><c>text`,      // cut inside character data of an open element
		`<a><b></b><c></c>`,   // document element never closed
		`<a>&broken`,          // cut inside an entity
		`<a><![CDATA[stuff`,   // cut inside CDATA
		`<a><!-- comment <b>`, // cut inside a comment
	} {
		g, rep, err := Load(strings.NewReader(doc), nil)
		if err == nil {
			t.Errorf("doc %q: expected error", doc)
		}
		if g != nil || rep != nil {
			t.Errorf("doc %q: partial graph or report returned alongside error", doc)
		}
	}
}

// TestLoadErrorAttribution checks truncation errors carry the package prefix
// and the decoder's line position — the details an operator needs to find
// the cut.
func TestLoadErrorAttribution(t *testing.T) {
	_, _, err := Load(strings.NewReader("<a>\n<b>\n<c></c>"), nil)
	if err == nil {
		t.Fatal("expected error for unclosed elements")
	}
	msg := err.Error()
	if !strings.Contains(msg, "xmlgraph:") || !strings.Contains(msg, "line") {
		t.Errorf("diagnostic lacks attribution or position: %v", err)
	}
}

// TestLoadDanglingRefsReportedInOrder verifies the report lists every
// unresolved reference, including repeats, in document order.
func TestLoadDanglingRefsReportedInOrder(t *testing.T) {
	doc := `<a><b ref="x y"/><c ref="x"/><d id="y"/></a>`
	_, rep, err := Load(strings.NewReader(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DanglingRefs) != 2 || rep.DanglingRefs[0] != "x" || rep.DanglingRefs[1] != "x" {
		t.Errorf("dangling refs = %v, want [x x]", rep.DanglingRefs)
	}
	if rep.ReferenceEdges != 1 {
		t.Errorf("reference edges = %d, want 1 (to id=y)", rep.ReferenceEdges)
	}
}
