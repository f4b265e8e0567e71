// Package faultfs is test support: only the WAL's tests construct it.
package faultfs

// FS has no non-test caller, and is no finding.
type FS struct{}

// New has no non-test caller, and is no finding.
func New() *FS { return &FS{} }
