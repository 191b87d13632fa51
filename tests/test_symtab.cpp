// SymtabAPI tests: ELF model round-trips, malformed-input rejection,
// section/symbol queries, e_flags and .riscv.attributes handling, and the
// loadable-image invariants (offset ≡ vaddr mod page) the emulator's
// loader relies on.
#include <gtest/gtest.h>

#include <cstring>

#include "assembler/assembler.hpp"
#include "common/leb128.hpp"
#include "symtab/riscv_attrs.hpp"
#include "symtab/symtab.hpp"

namespace {

using namespace rvdyn;
using symtab::Symtab;

Symtab small_binary() {
  return assembler::assemble(R"(
    .data
counter: .dword 7
    .rodata
msg: .asciz "hi"
    .bss
buf: .zero 64
    .text
    .globl _start
    .globl helper
_start:
    call helper
    li a7, 93
    ecall
helper:
    ret
)");
}

TEST(Symtab, SectionsModelled) {
  const auto st = small_binary();
  ASSERT_NE(st.find_section(".text"), nullptr);
  ASSERT_NE(st.find_section(".data"), nullptr);
  ASSERT_NE(st.find_section(".rodata"), nullptr);
  ASSERT_NE(st.find_section(".bss"), nullptr);
  ASSERT_NE(st.find_section(".riscv.attributes"), nullptr);
  EXPECT_TRUE(st.find_section(".text")->is_code());
  EXPECT_FALSE(st.find_section(".data")->is_code());
  EXPECT_EQ(st.find_section(".bss")->type, symtab::SHT_NOBITS);
  EXPECT_GT(st.find_section(".bss")->size(), 0u);
}

TEST(Symtab, SymbolQueries) {
  const auto st = small_binary();
  const auto* start = st.find_symbol("_start");
  ASSERT_NE(start, nullptr);
  EXPECT_TRUE(start->is_function());
  EXPECT_EQ(start->value, st.entry);
  const auto* counter = st.find_symbol("counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_FALSE(counter->is_function());
  const auto funcs = st.function_symbols();
  ASSERT_EQ(funcs.size(), 2u);
  EXPECT_LE(funcs[0]->value, funcs[1]->value);  // sorted
}

TEST(Symtab, AddressQueries) {
  const auto st = small_binary();
  const auto* counter = st.find_symbol("counter");
  EXPECT_EQ(st.read_addr(counter->value, 8), std::optional<std::uint64_t>(7));
  EXPECT_TRUE(st.in_code(st.entry));
  EXPECT_FALSE(st.in_code(counter->value));
  EXPECT_EQ(st.read_addr(0xdead0000, 8), std::nullopt);
  // Reads crossing the end of a section fail.
  const auto* ro = st.find_section(".rodata");
  EXPECT_EQ(st.read_addr(ro->addr + ro->data.size() - 1, 8), std::nullopt);
}

TEST(Symtab, WriteProducesMappableImage) {
  const auto st = small_binary();
  const auto image = st.write();

  symtab::Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof(eh));
  EXPECT_EQ(eh.e_machine, symtab::EM_RISCV);
  EXPECT_EQ(eh.e_type, symtab::ET_EXEC);
  ASSERT_GT(eh.e_phnum, 0);

  // Every PT_LOAD: offset ≡ vaddr (mod 4096) and within the file.
  for (unsigned i = 0; i < eh.e_phnum; ++i) {
    symtab::Elf64_Phdr ph;
    std::memcpy(&ph, image.data() + eh.e_phoff + i * sizeof(ph), sizeof(ph));
    EXPECT_EQ(ph.p_type, symtab::PT_LOAD);
    EXPECT_EQ(ph.p_offset % 0x1000, ph.p_vaddr % 0x1000) << "segment " << i;
    if (ph.p_filesz > 0) {  // offsets of zero-filesz (bss) segments are moot
      EXPECT_LE(ph.p_offset + ph.p_filesz, image.size());
    }
    EXPECT_GE(ph.p_memsz, ph.p_filesz);
  }
}

TEST(Symtab, RoundTripPreservesEverything) {
  const auto st = small_binary();
  const auto st2 = Symtab::read(st.write());
  EXPECT_EQ(st2.entry, st.entry);
  EXPECT_EQ(st2.e_flags, st.e_flags);
  for (const char* name : {".text", ".data", ".rodata"}) {
    const auto* a = st.find_section(name);
    const auto* b = st2.find_section(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->addr, b->addr);
    EXPECT_EQ(a->data, b->data);
    EXPECT_EQ(a->flags, b->flags);
  }
  EXPECT_EQ(st2.find_section(".bss")->size(), st.find_section(".bss")->size());
  // Same named symbols with same values.
  for (const auto& sym : st.symbols()) {
    const auto* other = st2.find_symbol(sym.name);
    ASSERT_NE(other, nullptr) << sym.name;
    EXPECT_EQ(other->value, sym.value);
    EXPECT_EQ(other->type, sym.type);
  }
}

// ---- malformed input rejection ----

TEST(SymtabRobustness, RejectsGarbage) {
  std::vector<std::uint8_t> junk(200, 0x5a);
  EXPECT_THROW(Symtab::read(junk), Error);
}

TEST(SymtabRobustness, RejectsTruncated) {
  const auto image = small_binary().write();
  std::vector<std::uint8_t> tiny(image.begin(), image.begin() + 20);
  EXPECT_THROW(Symtab::read(tiny), Error);
}

TEST(SymtabRobustness, RejectsWrongClass) {
  auto image = small_binary().write();
  image[4] = 1;  // ELFCLASS32
  EXPECT_THROW(Symtab::read(image), Error);
}

TEST(SymtabRobustness, RejectsBigEndian) {
  auto image = small_binary().write();
  image[5] = 2;  // ELFDATA2MSB
  EXPECT_THROW(Symtab::read(image), Error);
}

TEST(SymtabRobustness, RejectsOutOfBoundsSectionHeaders) {
  auto image = small_binary().write();
  symtab::Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof(eh));
  eh.e_shoff = image.size() + 1000;
  std::memcpy(image.data(), &eh, sizeof(eh));
  EXPECT_THROW(Symtab::read(image), Error);
}

TEST(SymtabRobustness, RejectsBadShstrndx) {
  auto image = small_binary().write();
  symtab::Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof(eh));
  eh.e_shstrndx = 999;
  std::memcpy(image.data(), &eh, sizeof(eh));
  EXPECT_THROW(Symtab::read(image), Error);
}

TEST(SymtabRobustness, SurvivesTruncatedAttributes) {
  // Arbitrary prefixes of a valid attributes payload must not crash the
  // parser (it may return nullopt).
  const auto payload = symtab::build_riscv_attributes("rv64imafdc_zicsr");
  for (std::size_t len = 0; len <= payload.size(); ++len) {
    std::vector<std::uint8_t> prefix(payload.begin(), payload.begin() + len);
    const auto result = symtab::parse_riscv_arch_attribute(prefix);
    if (len == payload.size()) {
      EXPECT_TRUE(result.has_value());
    }
  }
}

// ---- e_flags / attributes interplay ----

TEST(SymtabFlags, EFlagsTrackExtensions) {
  assembler::Options opts;
  opts.extensions = isa::ExtensionSet::rv64g();  // no C
  const auto st = assembler::assemble(".globl _start\n_start: ecall\n", opts);
  EXPECT_EQ(st.e_flags & symtab::EF_RISCV_RVC, 0u);
  EXPECT_EQ(st.e_flags & symtab::EF_RISCV_FLOAT_ABI_MASK,
            symtab::EF_RISCV_FLOAT_ABI_DOUBLE);

  assembler::Options imac;
  imac.extensions = isa::parse_isa_string("rv64imac_zicsr_zifencei");
  const auto st2 = assembler::assemble(".globl _start\n_start: ecall\n", imac);
  EXPECT_NE(st2.e_flags & symtab::EF_RISCV_RVC, 0u);
  EXPECT_EQ(st2.e_flags & symtab::EF_RISCV_FLOAT_ABI_MASK,
            symtab::EF_RISCV_FLOAT_ABI_SOFT);
}

TEST(SymtabFlags, AttributesPreferredOverEFlags) {
  auto st = small_binary();
  // Attributes say rv64imac (no D); e_flags claim double-float ABI. The
  // attributes section must win (paper §3.2.1's priority).
  auto* attrs = st.find_section(".riscv.attributes");
  ASSERT_NE(attrs, nullptr);
  attrs->data = symtab::build_riscv_attributes("rv64imac_zicsr");
  const auto exts = st.extensions();
  EXPECT_TRUE(exts.has(isa::Extension::M));
  EXPECT_FALSE(exts.has(isa::Extension::D));
}

TEST(SymtabFlags, SetExtensionsWritesBothSources) {
  auto st = small_binary();
  st.set_extensions(isa::parse_isa_string("rv64imafd_zicsr_zifencei"));
  EXPECT_EQ(st.e_flags & symtab::EF_RISCV_RVC, 0u);
  const auto* attrs = st.find_section(".riscv.attributes");
  const auto arch = symtab::parse_riscv_arch_attribute(attrs->data);
  ASSERT_TRUE(arch.has_value());
  EXPECT_FALSE(isa::parse_isa_string(*arch).has(isa::Extension::C));
  EXPECT_TRUE(isa::parse_isa_string(*arch).has(isa::Extension::D));
}

// ---- ULEB128 primitive ----

TEST(Leb128, RoundTrip) {
  const std::uint64_t probes[] = {0,   1,    127,        128,
                                  300, 1u << 20, ~0ULL >> 1, ~0ULL};
  for (const std::uint64_t v : probes) {
    std::vector<std::uint8_t> buf;
    uleb128_write(buf, v);
    std::size_t off = 0;
    EXPECT_EQ(uleb128_read(buf.data(), buf.size(), &off), v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(Leb128, TruncatedReadStopsAtEnd) {
  std::vector<std::uint8_t> buf;
  uleb128_write(buf, 1u << 20);
  std::size_t off = 0;
  uleb128_read(buf.data(), buf.size() - 1, &off);  // truncated
  EXPECT_EQ(off, buf.size() - 1);
}

TEST(Symtab, SectionContainingFindsAllocOnly) {
  auto st = small_binary();
  // .riscv.attributes is not allocatable: never returned by address.
  const auto* attrs = st.find_section(".riscv.attributes");
  ASSERT_NE(attrs, nullptr);
  EXPECT_FALSE(attrs->is_alloc());
  const auto* text = st.find_section(".text");
  EXPECT_EQ(st.section_containing(text->addr), text);
  EXPECT_EQ(st.section_containing(text->addr + text->data.size() - 1), text);
  EXPECT_EQ(st.section_containing(text->addr + text->data.size() + 0x100000),
            nullptr);
}

}  // namespace
