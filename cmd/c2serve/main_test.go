package main

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"c2knn/internal/frh"
	"c2knn/internal/persist"
)

// TestMain lets a test run the command itself: a child started with
// C2SERVE_RUN_MAIN=1 executes main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("C2SERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns the test binary set up to run c2serve with args.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "C2SERVE_RUN_MAIN=1")
	return cmd
}

func TestParseShardAddrs(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[int][]string
		wantErr  string
	}{
		{"two shards", "0=http://a:1|http://b:2,1=http://c:3",
			map[int][]string{0: {"http://a:1", "http://b:2"}, 1: {"http://c:3"}}, ""},
		{"http:// default", "0=a:1|https://b:2",
			map[int][]string{0: {"http://a:1", "https://b:2"}}, ""},
		{"trailing slash", "0=http://a:1/", map[int][]string{0: {"http://a:1"}}, ""},
		{"blanks skipped", " 0 = a:1 || , ", map[int][]string{0: {"http://a:1"}}, ""},
		{"duplicate id", "0=a:1,0=b:2", nil, "appears twice"},
		{"missing =", "0a:1", nil, "is not id=url|url"},
		{"non-integer id", "x=a:1", nil, "is not an integer"},
		{"empty URL list", "0=|", nil, "no replica URLs"},
		{"empty table", " , ", nil, "empty replica table"},
	} {
		got, err := parseShardAddrs(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: parseShardAddrs(%q) error = %v, want one containing %q", tc.name, tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseShardAddrs(%q) = %v, %v; want %v", tc.name, tc.in, got, err, tc.want)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		role, snap, manifest, shardAddr string
		upserts                         bool
		wantErr                         string // "" accepts
	}{
		{"shard", "shard", "ix.c2", "", "", false, ""},
		{"shard with upserts", "shard", "ix.c2", "", "", true, ""},
		{"shard without snap", "shard", "", "", "", false, "-snap"},
		{"router", "router", "", "m", "0=a:1", false, ""},
		{"router without manifest", "router", "", "", "0=a:1", false, "-manifest"},
		{"router without shard-addrs", "router", "", "m", "", false, "-shard-addrs"},
		{"router with snap", "router", "ix.c2", "m", "0=a:1", false, "-snap"},
		{"router with upserts", "router", "", "m", "0=a:1", true, "-upserts"},
		{"unknown role", "proxy", "ix.c2", "", "", false, "-role"},
	} {
		err := checkFlags(tc.role, tc.snap, tc.manifest, tc.shardAddr, tc.upserts)
		if (err != nil) != (tc.wantErr != "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: checkFlags = %v, want an error naming %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRouterShardOnlyFlagsExit2: the router role refuses the shard-only
// flags with exit status 2 and a message naming the flag, instead of
// ignoring them.
func TestRouterShardOnlyFlagsExit2(t *testing.T) {
	for _, flag := range [][]string{{"-snap", "ix.c2"}, {"-upserts"}} {
		args := append([]string{"-role", "router", "-manifest", "m", "-shard-addrs", "0=a:1"}, flag...)
		out, err := command(args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2; output: %s", flag, err, out)
		}
		if !strings.Contains(string(out), flag[0]) {
			t.Fatalf("%v: message does not name the flag: %s", flag, out)
		}
	}
}

// TestRouterAdminMetrics: -role router -pprof serves the router's
// /metrics on the admin listener, as it does for the shard role.
func TestRouterAdminMetrics(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "ix.c2.manifest")
	ranges := frh.PartitionBuckets(frh.DefaultShardBuckets, 1)
	m := &persist.Manifest{Buckets: frh.DefaultShardBuckets, Epoch: 1, Shards: []persist.ShardEntry{
		{ID: 0, Range: ranges[0], Path: "ix.c2.shard0", Epoch: 1},
	}}
	if err := persist.WriteManifestFile(manifest, m); err != nil {
		t.Fatal(err)
	}
	// The replica address is never served: the router starts regardless
	// and reports it unhealthy.
	cmd := command("-role", "router", "-manifest", manifest, "-shard-addrs", "0=127.0.0.1:1",
		"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	adminCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "admin (pprof + metrics) on "); ok {
				adminCh <- strings.TrimSpace(addr)
			}
		}
	}()
	var admin string
	select {
	case admin = <-adminCh:
	case <-time.After(30 * time.Second):
		t.Fatal("router did not report an admin address within 30s")
	}

	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin /metrics status %d: %s", resp.StatusCode, body)
	}
	for _, series := range []string{"c2_queries_total ", "c2_request_duration_seconds_count ", "c2_router_fanout_duration_seconds_count "} {
		if !strings.Contains(string(body), "\n"+series) {
			t.Errorf("admin /metrics lacks %q", series)
		}
	}
}
