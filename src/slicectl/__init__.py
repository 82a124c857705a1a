"""Design-time orchestration and placement simulation for network slices.

The package models the full design-time path: vendor templates are linted
and onboarded as virtual functions, bundled into services, walked through
the role-gated certification workflow, composed into slices with derived
SLAs, and finally placed onto a simulated multi-tenant infrastructure by a
latency-optimizing solver whose plans an independent verifier re-checks.
"""
