package deploy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensemble/internal/event"
)

func TestParseHostsWellFormed(t *testing.T) {
	in := `# perfect-links style hosts file
1 127.0.0.1 9001

3 localhost 9003
2 127.0.0.1 9002  # trailing comment not allowed -> see garbage test
`
	// The comment on line 5 makes it 5 fields; strip it for the happy path.
	in = strings.Replace(in, "  # trailing comment not allowed -> see garbage test", "", 1)
	hosts, err := ParseHosts(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 3 {
		t.Fatalf("parsed %d hosts, want 3", len(hosts))
	}
	// Sorted by id regardless of file order.
	want := []Host{{1, "127.0.0.1:9001"}, {2, "127.0.0.1:9002"}, {3, "localhost:9003"}}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts[%d] = %+v, want %+v", i, hosts[i], want[i])
		}
	}
}

func TestParseHostsDuplicateID(t *testing.T) {
	_, err := ParseHosts(strings.NewReader("1 127.0.0.1 9001\n2 127.0.0.1 9002\n1 127.0.0.1 9003\n"))
	if err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	// The error must name both occurrences by line for diagnosis.
	if msg := err.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, "line 1") {
		t.Fatalf("duplicate-id error lacks line numbers: %v", err)
	}
}

func TestParseHostsTrailingGarbage(t *testing.T) {
	for _, bad := range []string{
		"1 127.0.0.1 9001 extra\n",             // 4 fields
		"1 127.0.0.1\n",                        // 2 fields
		"one 127.0.0.1 9001\n",                 // non-numeric id
		"1 127.0.0.1 port\n",                   // non-numeric port
		"0 127.0.0.1 9001\n",                   // id < 1
		"1 127.0.0.1 0\n",                      // port out of range
		"1 127.0.0.1 70000\n",                  // port out of range
		"1 127.0.0.1 9001\n3 127.0.0.1 9003\n", // non-contiguous ids
	} {
		if _, err := ParseHosts(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed hosts %q accepted", bad)
		}
	}
}

func TestParseHostsEmpty(t *testing.T) {
	if _, err := ParseHosts(strings.NewReader("# only comments\n\n")); err == nil {
		t.Fatal("empty hosts file must be rejected")
	}
}

func TestSelfAddrMissingSelf(t *testing.T) {
	hosts := []Host{{1, "127.0.0.1:9001"}, {2, "127.0.0.1:9002"}}
	if _, err := SelfAddr(hosts, 3); err == nil {
		t.Fatal("id absent from the hosts file must be rejected")
	}
	addr, err := SelfAddr(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9002" {
		t.Fatalf("self addr = %q", addr)
	}
}

// TestNodeUnresolvableHost: a syntactically valid hosts file whose
// address cannot resolve must fail node startup, not hang. The bracket
// form is malformed as a literal, so no resolver traffic happens and
// the test stays hermetic.
func TestNodeUnresolvableHost(t *testing.T) {
	hosts := []Host{{1, "[::bad:1"}, {2, "127.0.0.1:9002"}}
	_, err := RunNode(NodeConfig{ID: 1, Hosts: hosts, W: Workload{Rounds: 1, Size: 16}}, nil, nil)
	if err == nil {
		t.Fatal("unresolvable self address must fail node startup")
	}
}

func TestLoadHostsAndFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hosts.txt")
	hosts := []Host{{1, "127.0.0.1:9001"}, {2, "127.0.0.1:9002"}}
	text, err := FormatHosts(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHosts(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hosts {
		if got[i] != hosts[i] {
			t.Fatalf("roundtrip hosts[%d] = %+v, want %+v", i, got[i], hosts[i])
		}
	}
	if _, err := LoadHosts(filepath.Join(dir, "absent.txt")); err == nil {
		t.Fatal("missing hosts file must error")
	}
}

func TestPeerMap(t *testing.T) {
	hosts := []Host{{1, "127.0.0.1:9001"}, {2, "127.0.0.1:9002"}}
	pm := PeerMap(hosts)
	if len(pm) != 2 || pm[event.Addr(1)] != "127.0.0.1:9001" || pm[event.Addr(2)] != "127.0.0.1:9002" {
		t.Fatalf("peer map %+v", pm)
	}
}
