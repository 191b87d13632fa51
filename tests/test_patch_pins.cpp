// Byte identity of rewritten binaries. Each pin is the FNV-1a-64 of
// Symtab::write() after a counter increment at every point of one type in
// every function: 8 programs x 8 point types x dead-register allocation off
// and on, parsed at 1, 2 and 4 threads. A change to relocation, code
// generation or parsing that moves one byte of one output fails here and
// names the program, point type and mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "patch/editor.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Pinned {
  const char* name;
  std::string source;
  /// [dead registers off, on][PointType, in enum order]
  std::uint64_t hash[2][8];
};

const std::vector<Pinned>& pinned() {
  static const std::vector<Pinned> pins = {
    {"matmul(20,2)", workloads::matmul_program(20, 2),
     {{0x30236549bdd28b56ULL, 0x80b575be27e08e92ULL,
       0xe2711af9f5d39c43ULL, 0xa406e979f2a79fa0ULL,
       0x447203ce8773a12dULL, 0xd10ded978cd1b06dULL,
       0xfefe256395cc449eULL, 0xce74a972ff774006ULL},
      {0x5ff99541d43b2ab7ULL, 0xee5666a479ed0007ULL,
       0x604442c1d1fb32d7ULL, 0x5c47638413cc693fULL,
       0xc924ab378c4be0d0ULL, 0xa5b6a5a46cb6581dULL,
       0x200632d7ce7ae62aULL, 0x73c165a493c0989eULL}}},
    {"call_churn(100)", workloads::call_churn_program(100),
     {{0xa715d397dae7bbc4ULL, 0xd6bf5e2c4b9efb84ULL,
       0x55bd315be39e9999ULL, 0xc54792d7bcc91cbbULL,
       0x93befd8edad7a263ULL, 0xd3ae7eb618d25aedULL,
       0xe04176bc5b49f36cULL, 0x45d1daada33b797aULL},
      {0xe213894ba704b58eULL, 0xa93e44137798fff2ULL,
       0x50551b8d847ded5fULL, 0x9af7b2f3a68b2e28ULL,
       0xe2e8a1861d3e95faULL, 0xce38eea192afa806ULL,
       0x39b7616bee0c9797ULL, 0x1381186b6811b339ULL}}},
    {"fib(10)", workloads::fib_program(10),
     {{0x494972e100c7cf5bULL, 0x297be3799b00267fULL,
       0x866e4626987e3c52ULL, 0x9b2d8fc5a57db640ULL,
       0x425dc4b26fc1a85eULL, 0x7bfa1e3a777020f2ULL,
       0x7bfa1e3a777020f2ULL, 0xb068eeb5d9cdaa3eULL},
      {0xb789e4b00734393cULL, 0xdc0c0be0e8dd9cf7ULL,
       0x49c997d7be8041d0ULL, 0x8ade117ebef91738ULL,
       0xfa9e2bd32cc6186cULL, 0x7bfa1e3a777020f2ULL,
       0x7bfa1e3a777020f2ULL, 0xd15c8c5151b1d448ULL}}},
    {"dispatch(100)", workloads::dispatch_program(100),
     {{0xe4cb281873de3988ULL, 0x90edbf9059b65572ULL,
       0x85244e9e91c614bfULL, 0xbd2c4766a23777ccULL,
       0xb65ba8cb35325d92ULL, 0xfe928cd4ec4c1740ULL,
       0x0a4c8404270eeb12ULL, 0x4a934cce30e4a5b9ULL},
      {0xa08a7630e411f623ULL, 0x54d00ced95c93ef5ULL,
       0xbc3061b8e63a49f5ULL, 0x3d640bfb88393765ULL,
       0xdd5fc9bfac7cd197ULL, 0xcd436db5778a7513ULL,
       0x04277fde1724d959ULL, 0xb8178af0cb5b2e60ULL}}},
    {"many_function(1500)", workloads::many_function_program(1500),
     {{0xf4aa8f3e59108c94ULL, 0x3933d8fe5f14cfd8ULL,
       0xd4d39de960153c3bULL, 0xbf2d7642d39c9ba1ULL,
       0x188162403db6fb69ULL, 0xac89fc3d62666cdbULL,
       0x547820ce70b06eceULL, 0xe3e43d32f621a310ULL},
      {0x5e6c64a2d04ce3a4ULL, 0x4f8bce06311e1e08ULL,
       0x66bb78acf1a8bdfcULL, 0x5b0a46702c5cee35ULL,
       0x3093bb8cac9677a0ULL, 0xa98c092a2b850addULL,
       0xe710225b4f8bf75dULL, 0x67f3694265603645ULL}}},
    {"sort(50)", workloads::sort_program(50),
     {{0xeb7d97355d3a2754ULL, 0xec46d4e80991621dULL,
       0xb2dd686b73513491ULL, 0x99b6cb934f7b0849ULL,
       0x63fd1c4ca886311eULL, 0xf8d3ac26481e5913ULL,
       0x69b36eeb972b213eULL, 0xb87a1ac55e3cd8f0ULL},
      {0x1a0d2562129bf89cULL, 0xb402e9ae6aff3e3aULL,
       0x251e9c8beb34b5a2ULL, 0x0aaa3caf6946d5feULL,
       0x437aa524ba0a0161ULL, 0x55153312f946b369ULL,
       0x6ef25320992512f3ULL, 0xcc7112cc9282bbcbULL}}},
    {"fuzz_target(RV!)", workloads::fuzz_target_program("RV!"),
     {{0x26eb9c279349ffddULL, 0x951662e7985f29f9ULL,
       0xc3689dd3696d4b00ULL, 0xda8e3ea651062016ULL,
       0x1f2670b56b22092bULL, 0x7d2be0808c00fe9dULL,
       0xef0742b3eb4b3f9bULL, 0x8537f7a84138809cULL},
      {0x0a26979d9c988194ULL, 0x9c7602556f5f0468ULL,
       0x0dc903c70594dd8fULL, 0x0867a3bf9876ee65ULL,
       0xbdb3b6825a99f954ULL, 0xf384d0ef2ef23a32ULL,
       0xb03311beeca445ecULL, 0x2ae326bf1e6c6739ULL}}},
    {"call_tree(2000,1)", workloads::call_tree_program(2000, 1),
     {{0x2fc35932e4d314e4ULL, 0x341fde153fab865cULL,
       0xb118dfa8ca74b848ULL, 0xe53e3bcd8f198e21ULL,
       0x72f4e5e3e60c5afcULL, 0xf83fcc548c450bbcULL,
       0xb7d13c354678b617ULL, 0x3db9643a43adc540ULL},
      {0xe0f17f03a5d55af5ULL, 0xf98165c12b730ac9ULL,
       0x05c419946385e7c0ULL, 0x80b5864ac029f953ULL,
       0x59636ebd95652c30ULL, 0x1e732cd716af324fULL,
       0x680c0577da5bf209ULL, 0x0311adc00e1b5110ULL}}},
  };
  return pins;
}

void check_pins(unsigned threads) {
  for (const Pinned& p : pinned()) {
    const symtab::Symtab bin = assembler::assemble(p.source);
    for (const bool dead : {false, true}) {
      for (int t = 0; t < 8; ++t) {
        const auto type = static_cast<patch::PointType>(t);
        parse::ParseOptions popts;
        popts.num_threads = threads;
        patch::BinaryEditor editor(bin, popts);
        editor.set_use_dead_registers(dead);
        const codegen::Variable counter = editor.alloc_var("counter");
        for (const auto& [entry, f] : editor.code().functions())
          editor.insert_at(entry, type, codegen::increment(counter));
        EXPECT_EQ(fnv1a64(editor.commit().write()), p.hash[dead][t])
            << p.name << " " << patch::point_type_name(type)
            << (dead ? " dead-reg" : " always-spill") << " at " << threads
            << " parse threads";
      }
    }
  }
}

TEST(RewrittenElfPins, OneParseThread) { check_pins(1); }
TEST(RewrittenElfPins, TwoParseThreads) { check_pins(2); }
TEST(RewrittenElfPins, FourParseThreads) { check_pins(4); }

}  // namespace
}  // namespace rvdyn
