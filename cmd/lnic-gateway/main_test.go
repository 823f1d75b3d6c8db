package main

import (
	"strings"
	"testing"
)

func TestParseRoute(t *testing.T) {
	id, addrs, err := parseRoute("7=127.0.0.1:9000,127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || len(addrs) != 2 {
		t.Errorf("id=%d addrs=%v", id, addrs)
	}
	if addrs[0].String() != "127.0.0.1:9000" {
		t.Errorf("addr = %v", addrs[0])
	}
}

func TestParseRouteErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"noequals", "want id=addr"},
		{"x=127.0.0.1:9000", "bad workload id"},
		{"1=", "no worker addresses"},
		{"1=not a real : addr :", "route"},
	}
	for _, tc := range cases {
		if _, _, err := parseRoute(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseRoute(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestRunRequiresRoutes(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}); err == nil {
		t.Error("run without routes succeeded")
	}
}

func TestRunRejectsBadFaultRule(t *testing.T) {
	if err := run([]string{"-route", "1=127.0.0.1:9000", "-faults", "bogus"}); err == nil {
		t.Error("bad fault rule accepted")
	}
}

func TestRunRejectsImbalanceBelowOne(t *testing.T) {
	err := run([]string{"-route", "1=127.0.0.1:9000", "-imbalance", "0.5"})
	if err == nil || !strings.Contains(err.Error(), "-imbalance") {
		t.Errorf("run -imbalance 0.5 = %v, want an -imbalance error", err)
	}
}

func TestRunRejectsRebalanceTopKBelowOne(t *testing.T) {
	err := run([]string{"-route", "1=127.0.0.1:9000", "-rebalance-topk", "0"})
	if err == nil || !strings.Contains(err.Error(), "-rebalance-topk") {
		t.Errorf("run -rebalance-topk 0 = %v, want a -rebalance-topk error", err)
	}
}
