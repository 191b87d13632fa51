#include "workloads/workloads.hpp"

#include <sstream>

namespace rvdyn::workloads {

std::string matmul_program(int n, int reps) {
  std::ostringstream out;
  const long cells = static_cast<long>(n) * n;
  out << R"(# Paper §4.1 workload: timed loop around an n x n double matmul.
    .bss
    .align 3
A:  .zero )" << cells * 8 << R"(
B:  .zero )" << cells * 8 << R"(
C:  .zero )" << cells * 8 << R"(
ts0: .zero 16
ts1: .zero 16
    .data
    .align 3
    .globl elapsed_ns
elapsed_ns: .dword 0

    .text
    .globl _start
    .globl matmul
_start:
    # Fill A and B with simple patterns (A[i]=i%7+1, B[i]=i%5+1 as ints
    # converted to double) so the product is non-trivial.
    la t0, A
    la t1, B
    li t2, 0
    li t3, )" << cells << R"(
fill:
    li t4, 7
    rem t5, t2, t4
    addi t5, t5, 1
    fcvt.d.l ft0, t5
    fsd ft0, 0(t0)
    li t4, 5
    rem t5, t2, t4
    addi t5, t5, 1
    fcvt.d.l ft0, t5
    fsd ft0, 0(t1)
    addi t0, t0, 8
    addi t1, t1, 8
    addi t2, t2, 1
    blt t2, t3, fill

    # Sample the clock before the timed loop.
    li a0, 1
    la a1, ts0
    li a7, 113
    ecall

    li s3, 0                 # rep counter
    li s4, )" << reps << R"(
reploop:
    la a0, C
    la a1, A
    la a2, B
    li a3, )" << n << R"(
    call matmul
    addi s3, s3, 1
    blt s3, s4, reploop

    # Sample the clock after the loop and store the delta.
    li a0, 1
    la a1, ts1
    li a7, 113
    ecall
    la t0, ts0
    la t1, ts1
    ld t2, 0(t0)             # sec0
    ld t3, 8(t0)             # nsec0
    ld t4, 0(t1)             # sec1
    ld t5, 8(t1)             # nsec1
    sub t4, t4, t2
    li t6, 1000000000
    mul t4, t4, t6
    add t4, t4, t5
    sub t4, t4, t3           # elapsed ns
    la t0, elapsed_ns
    sd t4, 0(t0)

    # Exit with a checksum of C[0][0] so results are validated.
    la t0, C
    fld fa0, 0(t0)
    fcvt.l.d a0, fa0
    andi a0, a0, 255
    li a7, 93
    ecall

# void matmul(double* C /*a0*/, double* A /*a1*/, double* B /*a2*/, long n /*a3*/)
# The function body is a classic triple loop; with the loop-head splits it
# parses into ~11 basic blocks, matching the paper's description.
matmul:
    addi sp, sp, -48
    sd ra, 40(sp)
    sd s0, 32(sp)
    sd s1, 24(sp)
    sd s2, 16(sp)
    li s0, 0                 # i
iloop:
    bge s0, a3, idone
    li s1, 0                 # j
jloop:
    bge s1, a3, jdone
    mul t0, s0, a3           # &C[i][j]
    add t0, t0, s1
    slli t0, t0, 3
    add t0, t0, a0
    fmv.d.x ft0, x0          # sum = 0.0
    li s2, 0                 # k
kloop:
    bge s2, a3, kdone
    mul t1, s0, a3           # A[i][k]
    add t1, t1, s2
    slli t1, t1, 3
    add t1, t1, a1
    fld ft1, 0(t1)
    mul t2, s2, a3           # B[k][j]
    add t2, t2, s1
    slli t2, t2, 3
    add t2, t2, a2
    fld ft2, 0(t2)
    fmadd.d ft0, ft1, ft2, ft0
    addi s2, s2, 1
    j kloop
kdone:
    fsd ft0, 0(t0)
    addi s1, s1, 1
    j jloop
jdone:
    addi s0, s0, 1
    j iloop
idone:
    ld ra, 40(sp)
    ld s0, 32(sp)
    ld s1, 24(sp)
    ld s2, 16(sp)
    addi sp, sp, 48
    ret
)";
  return out.str();
}

std::string call_churn_program(int reps) {
  std::ostringstream out;
  out << R"(
    .text
    .globl _start
    .globl wrapper
    .globl leaf
_start:
    li s0, 0
    li s1, )" << reps << R"(
cloop:
    mv a0, s0
    call wrapper
    add s2, s2, a0
    addi s0, s0, 1
    blt s0, s1, cloop
    andi a0, s2, 255
    li a7, 93
    ecall
wrapper:
    addi sp, sp, -16
    sd ra, 8(sp)
    call leaf
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
leaf:
    slli a0, a0, 1
    ret
)";
  return out.str();
}

std::string fib_program(int n) {
  std::ostringstream out;
  out << R"(
    .text
    .globl _start
    .globl fib
_start:
    li a0, )" << n << R"(
    call fib
    andi a0, a0, 255
    li a7, 93
    ecall
fib:
    li t0, 2
    bge a0, t0, rec
    ret
rec:
    addi sp, sp, -32
    sd ra, 24(sp)
    sd s0, 16(sp)
    sd s1, 8(sp)
    mv s0, a0
    addi a0, s0, -1
    call fib
    mv s1, a0
    addi a0, s0, -2
    call fib
    add a0, a0, s1
    ld ra, 24(sp)
    ld s0, 16(sp)
    ld s1, 8(sp)
    addi sp, sp, 32
    ret
)";
  return out.str();
}

std::string dispatch_program(int iterations) {
  std::ostringstream out;
  out << R"(
    .rodata
    .align 3
jtable:
    .dword op_add
    .dword op_xor
    .dword op_shift
    .dword op_sub
    .text
    .globl _start
    .globl dispatch
_start:
    li s0, 0                 # i
    li s1, )" << iterations << R"(
    li s2, 1                 # accumulator
dloop:
    andi a0, s0, 3           # selector
    mv a1, s2
    call dispatch
    mv s2, a0
    addi s0, s0, 1
    blt s0, s1, dloop
    andi a0, s2, 255
    li a7, 93
    ecall
dispatch:
    li t0, 4
    bgeu a0, t0, ddefault
    slli t1, a0, 3
    la t2, jtable
    add t1, t1, t2
    ld t1, 0(t1)
    jr t1
op_add:
    addi a0, a1, 3
    ret
op_xor:
    xori a0, a1, 0x55
    ret
op_shift:
    slli a0, a1, 1
    ret
op_sub:
    addi a0, a1, -1
    ret
ddefault:
    mv a0, a1
    ret
)";
  return out.str();
}

std::string sort_program(int n) {
  std::ostringstream out;
  out << R"(# Insertion sort of n xorshift-generated keys; exit 0 iff sorted.
    .bss
    .align 3
keys: .zero )" << n * 8 << R"(
    .text
    .globl _start
    .globl fill
    .globl isort
    .globl check
_start:
    la a0, keys
    li a1, )" << n << R"(
    call fill
    la a0, keys
    li a1, )" << n << R"(
    call isort
    la a0, keys
    li a1, )" << n << R"(
    call check
    li a7, 93
    ecall

# fill(keys, n): xorshift64 starting from a fixed seed
fill:
    li t0, 0x9e3779b97f4a7c15
    li t1, 0                  # i
ffloop:
    bge t1, a1, ffdone
    slli t2, t0, 13
    xor t0, t0, t2
    srli t2, t0, 7
    xor t0, t0, t2
    slli t2, t0, 17
    xor t0, t0, t2
    slli t3, t1, 3
    add t3, t3, a0
    sd t0, 0(t3)
    addi t1, t1, 1
    j ffloop
ffdone:
    ret

# isort(keys, n): classic insertion sort (unsigned keys)
isort:
    li t0, 1                  # i
iloop2:
    bge t0, a1, idone2
    slli t1, t0, 3
    add t1, t1, a0
    ld t2, 0(t1)              # key = keys[i]
    mv t3, t0                 # j = i
siftloop:
    beqz t3, insert
    addi t4, t3, -1
    slli t5, t4, 3
    add t5, t5, a0
    ld t6, 0(t5)              # keys[j-1]
    bleu t6, t2, insert       # keys[j-1] <= key: stop
    slli s0, t3, 3
    add s0, s0, a0
    sd t6, 0(s0)              # keys[j] = keys[j-1]
    mv t3, t4
    j siftloop
insert:
    slli s0, t3, 3
    add s0, s0, a0
    sd t2, 0(s0)
    addi t0, t0, 1
    j iloop2
idone2:
    ret

# check(keys, n) -> a0 = 0 if sorted ascending else 1
check:
    li t0, 1
ckloop:
    bge t0, a1, cksorted
    slli t1, t0, 3
    add t1, t1, a0
    ld t2, 0(t1)
    ld t3, -8(t1)
    bltu t2, t3, ckbad
    addi t0, t0, 1
    j ckloop
cksorted:
    li a0, 0
    ret
ckbad:
    li a0, 1
    ret
)";
  return out.str();
}

std::string many_function_program(int n_funcs) {
  std::ostringstream out;
  out << "    .text\n    .globl _start\n_start:\n";
  for (int i = 0; i < n_funcs; ++i)
    out << "    call f" << i << "\n";
  out << "    li a0, 0\n    li a7, 93\n    ecall\n";
  for (int i = 0; i < n_funcs; ++i) {
    out << "    .globl f" << i << "\nf" << i << ":\n";
    out << "    addi sp, sp, -16\n    sd ra, 8(sp)\n";
    out << "    li t0, " << (i % 17) << "\n";
    out << "    li t1, 0\n";
    out << "f" << i << "_loop:\n";
    out << "    addi t1, t1, 1\n";
    out << "    blt t1, t0, f" << i << "_loop\n";
    out << "    andi t2, t0, 1\n";
    out << "    beqz t2, f" << i << "_even\n";
    out << "    addi a0, a0, 1\n";
    out << "f" << i << "_even:\n";
    if (i + 1 < n_funcs && i % 3 == 0)
      out << "    call f" << (i + 1) << "\n";
    out << "    ld ra, 8(sp)\n    addi sp, sp, 16\n    ret\n";
  }
  return out.str();
}

std::string call_tree_program(int n_funcs, int fanout) {
  std::ostringstream out;
  out << "    .text\n    .globl _start\n_start:\n";
  if (n_funcs > 0) out << "    call f0\n";
  out << "    li a0, 0\n    li a7, 93\n    ecall\n";
  for (long i = 0; i < n_funcs; ++i) {
    out << "f" << i << ":\n";
    out << "    addi sp, sp, -16\n    sd ra, 8(sp)\n";
    out << "    li t0, " << (i % 17) << "\n    li t1, 0\n";
    out << "f" << i << "_loop:\n";
    out << "    addi t1, t1, 1\n";
    out << "    blt t1, t0, f" << i << "_loop\n";
    for (long c = i * fanout + 1; c <= i * fanout + fanout && c < n_funcs; ++c)
      out << "    call f" << c << "\n";
    out << "    ld ra, 8(sp)\n    addi sp, sp, 16\n    ret\n";
  }
  return out.str();
}

std::string fuzz_target_program(const std::string& magic) {
  std::ostringstream out;
  out << R"(# Fuzzing mutatee: checksum the input, then compare it byte-by-byte
# against a magic prefix. A full match executes ebreak (the seeded bug);
# each compare is its own basic block, so edge coverage rewards every
# matched byte and guides the search toward the crash.
    .data
    .align 3
    .globl fuzz_input
fuzz_input: .zero 64
    .globl fuzz_len
fuzz_len: .dword 0

    .text
    .globl _start
    .globl checksum
_start:
    la a0, fuzz_input
    la t0, fuzz_len
    ld a1, 0(t0)
    call checksum
    mv s0, a0                # keep the checksum for the exit code
    la t0, fuzz_len
    ld t1, 0(t0)
    li t2, )" << magic.size() << R"(
    blt t1, t2, no_bug       # too short to hold the magic
    la t3, fuzz_input
)";
  for (std::size_t i = 0; i < magic.size(); ++i) {
    out << "    lbu t4, " << i << "(t3)\n";
    out << "    li t5, " << static_cast<unsigned>(
        static_cast<unsigned char>(magic[i])) << "\n";
    out << "    bne t4, t5, no_bug\n";
  }
  out << R"(    ebreak                   # the seeded bug: full magic match
no_bug:
    andi a0, s0, 255
    li a7, 93
    ecall

# checksum(buf /*a0*/, len /*a1*/): rotating xor over the input bytes
checksum:
    li t0, 0                 # i
    li t1, 0                 # acc
csloop:
    bge t0, a1, csdone
    add t2, a0, t0
    lbu t3, 0(t2)
    slli t4, t1, 1
    srli t1, t1, 63
    or t1, t1, t4
    xor t1, t1, t3
    addi t0, t0, 1
    j csloop
csdone:
    mv a0, t1
    ret
)";
  return out.str();
}

}  // namespace rvdyn::workloads
