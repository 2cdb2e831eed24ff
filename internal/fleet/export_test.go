package fleet

// CacheWaiters reports how many fetches are parked on in-flight download
// cache fills, summed over keys; 0 when the cache is off.
func (k *Kernels) CacheWaiters() int {
	if k.downloads == nil {
		return 0
	}
	k.downloads.mu.Lock()
	defer k.downloads.mu.Unlock()
	n := 0
	for _, call := range k.downloads.inflight {
		n += call.waiters
	}
	return n
}

// SetReleaseBuffer swaps what Input.Release does with a released
// input's buffer (by default, bufpool.Put) and returns the restore.
func SetReleaseBuffer(release func([]byte)) (restore func()) {
	old := releaseBuffer
	releaseBuffer = release
	return func() { releaseBuffer = old }
}
