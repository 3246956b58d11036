// Service embeds the D(k)-index HTTP server in a program and drives it as a
// client would: query through /v1/query, ingest a raw XML document through
// /v1/documents, and write through /v1/mutate — here the optimize mutation,
// which lets the index re-tune itself to the load the server has observed.
//
//	go run ./examples/service
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/server"
)

func main() {
	// Build an index over a small auction site.
	var doc strings.Builder
	if err := datagen.XMark(datagen.XMarkScale(0.02)).WriteXML(&doc); err != nil {
		log.Fatal(err)
	}
	idx, err := dkindex.LoadXMLString(doc.String(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// Serve it on an ephemeral local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(idx)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	show := func(method, path, body string) map[string]any {
		var (
			resp *http.Response
			err  error
		)
		switch {
		case method == "GET":
			resp, err = http.Get(base + path)
		case strings.HasPrefix(body, "<"):
			resp, err = http.Post(base+path, "application/xml", strings.NewReader(body))
		default:
			resp, err = http.Post(base+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out map[string]any
		_ = json.Unmarshal(raw, &out)
		fmt.Printf("%-6s %-46s -> %d", method, path, resp.StatusCode)
		if c, ok := out["count"]; ok {
			fmt.Printf("  count=%v", c)
		}
		if c, ok := out["indexNodes"]; ok {
			fmt.Printf("  indexNodes=%v", c)
		}
		if c, ok := out["generation"]; ok {
			fmt.Printf("  generation=%v", c)
		}
		fmt.Println()
		return out
	}

	// A client works the index: the same hot query, over and over.
	fmt.Println("\n--- clients issue queries (the server records the load) ---")
	for i := 0; i < 5; i++ {
		show("GET", "/v1/query?q=closed_auction.itemref.item.name", "")
	}
	show("GET", "/v1/query?kind=twig&q=item%5Bmailbox%5D.name", "")
	show("GET", "/v1/stats", "")

	// Data changes arrive as the site runs.
	fmt.Println("\n--- live updates ---")
	show("POST", "/v1/documents", `<site><regions><asia><item id="late1"><name/><incategory categoryref="category0"/></item></asia></regions></site>`)
	show("GET", "/v1/query?q=asia.item.name", "")

	// Maintenance: let the index re-tune itself to the observed load.
	fmt.Println("\n--- self-tuning from the observed load ---")
	out := show("POST", "/v1/mutate", `{"op":"optimize","budget":0}`)
	fmt.Printf("chosen requirements: %v\n", out["requirements"])
	show("GET", "/v1/query?q=closed_auction.itemref.item.name", "")
	show("GET", "/v1/stats", "")
}
