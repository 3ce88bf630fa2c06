// Clean control for comment handling, staged as src/milback/fix/: rule
// patterns after code on the same line sit in a comment, which is no code.
namespace milback::fix {

int comment_after_code() {
  int x = 0;  // std::thread ... std::chrono
  return x;
}

}  // namespace milback::fix
