package main

import "testing"

func TestRunSmallPlan(t *testing.T) {
	err := run([]string{
		"-topo", "cittastudi", "-util", "1.0", "-slots", "60",
		"-lambda", "2", "-v",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-topo", "nonsense"}); err == nil {
		t.Error("unknown topology accepted")
	}
}
