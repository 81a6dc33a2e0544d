package serve

import "clientmap/internal/statefs"

// Rolling-artifact export for the streaming mode: the stream assembles a
// fresh ClientMap every emitted sim hour and hands it here; the exporter
// atomically replaces the artifact file only when the map's payload hash
// actually changed. clientmapd's -reload polling then hot-swaps the new
// map, so a living view of the churning world reaches clients end to end
// without either side restarting.

// RollingExporter writes successive ClientMap snapshots to one path,
// deduplicating by payload hash. It is not safe for concurrent use; the
// stream emits from its single hour loop.
type RollingExporter struct {
	// Path is the artifact file clientmapd watches. Empty disables
	// export (Export still hashes, so callers get the map identity).
	Path string
	// FS is the state-I/O seam the artifact is written through; nil
	// means statefs.Disk.
	FS statefs.FS

	lastHash string
}

// Export marshals cm, and — when Path is set and the payload hash
// differs from the previously written artifact — atomically replaces
// the file. It returns the payload hash and whether a write happened.
func (e *RollingExporter) Export(cm *ClientMap) (hash string, wrote bool, err error) {
	if e.Path == "" {
		_, hash = Marshal(cm)
		return hash, false, nil
	}
	data, hash := Marshal(cm)
	if hash == e.lastHash {
		return hash, false, nil
	}
	if err := statefs.Or(e.FS).WriteAtomic(e.Path, data); err != nil {
		return hash, false, err
	}
	e.lastHash = hash
	return hash, true, nil
}
