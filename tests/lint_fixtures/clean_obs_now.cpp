// Lint fixture: MUST produce zero findings.  Exercises the sanctioned
// observability idioms: a stage timed by an obs::Span, whose clock
// reads go through obs::Now() (the one allowlisted clock — a literal
// steady_clock::now() here would fire ICTM-D002), and static
// references to registry-owned metrics (the referent is atomic and
// order-independent, so ICTM-D004 does not apply; a
// `static std::uint64_t total;` would be flagged).
#include <cstdint>

namespace obs {
class Counter {
 public:
  void add(std::uint64_t n = 1);
};
class Histogram {
 public:
  void record(double v);
};
enum class MetricClass { kDeterministic, kTiming };
Counter& GetCounter(const char* name, MetricClass cls);
Histogram& GetHistogram(const char* name, MetricClass cls);
class Span {
 public:
  Span(const char* name, const char* category, Counter* ns = nullptr,
       Histogram* dist = nullptr);
  ~Span();
};
}  // namespace obs

// Legal: the static binds a reference to registry-owned metric state;
// the clang-format wrap puts the initializer call on the next line, so
// the declaration line itself carries no parenthesis.
void RecordSolve(double elapsedHint) {
  static obs::Counter& solves =
      obs::GetCounter("fixture.solves", obs::MetricClass::kDeterministic);
  static obs::Histogram& solveNs =
      obs::GetHistogram("fixture.solve_ns", obs::MetricClass::kTiming);

  // Legal: the span reads the clock only while metrics record or a
  // trace session runs — the estimation path never observes it.
  obs::Span span("solve", "fixture", nullptr, &solveNs);
  (void)elapsedHint;
  solves.add();
}
