package consolidation

// cloneHosts deep-copies the state so replaying a plan never mutates the
// input.
func cloneHosts(hosts []HostState) []HostState {
	out := make([]HostState, len(hosts))
	for i, h := range hosts {
		out[i] = h
		out[i].VMs = append([]VMState(nil), h.VMs...)
	}
	return out
}

// hostByName returns a pointer into the working copy.
func hostByName(hosts []HostState, name string) *HostState {
	for i := range hosts {
		if hosts[i].Name == name {
			return &hosts[i]
		}
	}
	return nil
}

// removeVM detaches a VM from a host state.
func removeVM(h *HostState, name string) (VMState, bool) {
	return removeVMSlice(&h.VMs, name)
}
