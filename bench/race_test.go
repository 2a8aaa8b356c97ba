//go:build race

package main

// The race detector slows the smoke runs several-fold past their time limit.
func init() { raceDetector = true }
