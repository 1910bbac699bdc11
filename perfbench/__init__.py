"""The STMaker benchmark: workloads, traced layers and output checks."""
