package dpserver

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dptrace/internal/dpserver/api"
)

// These tests pin the route table as the API's single source of
// truth: every endpoint has exactly one /v1 mount, and README's list of
// owner-side endpoints is the table's Owner routes. A new endpoint
// wired outside the table, or mounted twice, fails here.

func TestEveryRouteHasExactlyOneCanonicalV1Path(t *testing.T) {
	routes := Routes()
	if len(routes) == 0 {
		t.Fatal("empty route table")
	}
	seen := make(map[string]bool)
	for _, rt := range routes {
		if rt.Method == "" || !strings.HasPrefix(rt.Path, "/") {
			t.Errorf("malformed route %+v", rt)
		}
		// Paths are relative to the /v1 mount; a path carrying its own
		// /v1 would mount at /v1/v1 — one canonical path, not two forms.
		if strings.HasPrefix(rt.Path, "/v1/") || rt.Path == "/v1" {
			t.Errorf("route %q embeds the /v1 prefix", rt.Path)
		}
		key := rt.Method + " " + rt.Path
		if seen[key] {
			t.Errorf("route %q mounted twice", key)
		}
		seen[key] = true
	}
}

// TestReadmeOwnerEndpointsMatchRoutes turns README's split between
// analyst and owner endpoints into a checked fact: the bullet list
// under "Owner-side endpoints" names exactly the Owner routes.
func TestReadmeOwnerEndpointsMatchRoutes(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "\nOwner-side endpoints")
	if !ok {
		t.Fatal(`README has no "Owner-side endpoints" list`)
	}
	// The list is the block after the introducing paragraph.
	_, rest, _ = strings.Cut(rest, "\n\n")
	list, _, _ := strings.Cut(rest, "\n\n")
	entry := regexp.MustCompile("(?m)^- `([A-Z]+) /v1(/[^`]*)`")
	var documented []string
	for _, m := range entry.FindAllStringSubmatch(list, -1) {
		documented = append(documented, m[1]+" "+m[2])
	}
	var owner []string
	for _, rt := range Routes() {
		if rt.Owner {
			owner = append(owner, rt.Method+" "+rt.Path)
		}
	}
	sort.Strings(documented)
	sort.Strings(owner)
	if strings.Join(documented, "\n") != strings.Join(owner, "\n") {
		t.Fatalf("README's owner-side endpoints:\n%s\nOwner routes in the table:\n%s",
			strings.Join(documented, "\n"), strings.Join(owner, "\n"))
	}
}

// TestOneSpendingQueryRoute pins the query surface: /v1/query is the
// one route that runs a query kind, the retired link and hop
// extraction routes answer 404, and naming their kinds on /v1/query is
// a 400 listing the kinds there are.
func TestOneSpendingQueryRoute(t *testing.T) {
	var query []string
	for _, rt := range Routes() {
		if strings.HasPrefix(rt.Path, "/query") {
			query = append(query, rt.Method+" "+rt.Path)
		}
	}
	if strings.Join(query, ",") != "POST /query" {
		t.Fatalf("query routes %v, want only POST /query", query)
	}
	_, ts := lifecycleServer(t, math.Inf(1), math.Inf(1))
	for _, kind := range []string{"loadmatrix", "monitoravgs"} {
		resp, body := postV1(t, ts.URL+"/v1/query/"+kind, map[string]any{"analyst": "a", "dataset": "hotspot", "epsilon": 0.1}, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST /v1/query/%s = %d %s, want 404", kind, resp.StatusCode, body)
		}
		resp, body = postV1(t, ts.URL+"/v1/query", api.QueryRequest{Analyst: "a", Dataset: "hotspot", Query: kind, Epsilon: 0.1}, nil)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
			e.Code != api.CodeBadRequest || !strings.Contains(e.Message, strings.Join(packetKindNames(), ", ")) {
			t.Errorf(`POST /v1/query {"query":%q} = %d %s, want 400 listing the kinds`, kind, resp.StatusCode, body)
		}
	}
}
