//go:build race

package cacheprobe_test

func init() { raceEnabled = true }
