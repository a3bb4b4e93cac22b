// The AVX upper vector state, made observable and forcible: what the
// root-reduction guard (simd::zero_upper; docs/KERNELS.md, "Vector-state
// hygiene") protects against, exposed so that tests and bench cases can set
// the state up and confirm it.
#pragma once

namespace plf::simd {

/// True when the OS enabled XSAVE and the CPU reports which state
/// components are in use (XGETBV with ECX = 1, CPUID.(EAX=0DH,ECX=1):EAX[2]).
/// Always false in a build without AVX.
bool upper_state_observable();

/// True when the upper halves of YMM0-15 are marked in use (XINUSE bit 2).
/// Meaningful only when upper_state_observable().
bool upper_state_dirty();

/// Run fn(ctx) with the upper state marked in use at its entry, the way the
/// engine's π conversion once left it: a VEX.256 conversion with a memory
/// source and an XMM destination writes no YMM register, so the compiler
/// emits no vzeroupper after it, yet the CPU sets XINUSE bit 2. Inline
/// callers cannot do this reliably: a function that uses 256-bit registers
/// gets a vzeroupper before each of its calls. This one is out of line and
/// free of 256-bit code, so nothing cleans the state before fn runs; fn can
/// confirm it with upper_state_dirty(). Without AVX it just calls fn.
void call_with_dirty_upper(void (*fn)(void*), void* ctx);

}  // namespace plf::simd
