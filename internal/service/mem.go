package service

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memSnapshot reports process memory under the /metrics "mem" key:
// Go heap usage plus the OS-level resident set (what the paged store's
// O(working set) claim is about). RSS comes from /proc/self/statm and
// reads 0 where that file does not exist.
func memSnapshot() map[string]uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]uint64{
		"heap_alloc_bytes": ms.HeapAlloc,
		"sys_bytes":        ms.Sys,
		"rss_bytes":        rssBytes(),
	}
}

// rssBytes returns the resident set size from /proc/self/statm
// (second field, in pages), or 0 if unavailable.
func rssBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
