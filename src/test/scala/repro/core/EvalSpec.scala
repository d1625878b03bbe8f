package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.saql.Ast._
import repro.saql.Parser
import Eval._

class EvalSpec extends AnyFunSuite {

  /** Env with fixed state values; ss[1] has half of ss[0]'s numbers. */
  private val env = new Env {
    def stateRef(idx: Int, field: String): Value = (idx, field) match {
      case (0, "avg")  => NumV(100.0)
      case (1, "avg")  => NumV(50.0)
      case (0, "sp")   => SetV(Set("a", "b", "c"))
      case (1, "sp")   => SetV(Set("a"))
      case (_, "avg")  => NumV(0.0)
      case (_, "sp")   => SetV(Set.empty)
      case other       => fail(s"unexpected stateRef $other")
    }
    def attrRef(ref: FieldRef): Value = StrV(s"attr:${ref.colName}")
    def invRef(name: String): Value = SetV(Set("a", "b"))
    def clusterOutlier: Boolean = true
  }

  private def n(v: Double) = NumLit(v)

  test("literals") {
    assert(eval(n(3.5), env) == NumV(3.5))
    assert(eval(StrLit("x"), env) == StrV("x"))
    assert(eval(EmptySet, env) == SetV(Set.empty))
  }

  test("arithmetic") {
    assert(eval(Bin("+", n(2), n(3)), env) == NumV(5))
    assert(eval(Bin("-", n(2), n(3)), env) == NumV(-1))
    assert(eval(Bin("*", n(2), n(3)), env) == NumV(6))
    assert(eval(Bin("/", n(6), n(3)), env) == NumV(2))
  }

  test("comparisons") {
    assert(eval(Bin(">", n(2), n(1)), env).asBool)
    assert(!eval(Bin("<", n(2), n(1)), env).asBool)
    assert(eval(Bin(">=", n(2), n(2)), env).asBool)
    assert(eval(Bin("<=", n(2), n(2)), env).asBool)
    assert(eval(Bin("==", n(2), n(2)), env).asBool)
    assert(eval(Bin("!=", n(2), n(3)), env).asBool)
  }

  test("logical operators") {
    val t = Bin(">", n(1), n(0)); val f = Bin(">", n(0), n(1))
    assert(eval(Bin("&&", t, t), env).asBool)
    assert(!eval(Bin("&&", t, f), env).asBool)
    assert(eval(Bin("||", f, t), env).asBool)
    assert(!eval(Bin("||", f, f), env).asBool)
  }

  test("state references with history index") {
    assert(eval(StateRef("ss", 0, "avg"), env) == NumV(100))
    assert(eval(StateRef("ss", 1, "avg"), env) == NumV(50))
    assert(eval(StateRef("ss", 2, "avg"), env) == NumV(0))
  }

  test("set union / diff / cardinality") {
    val u = eval(Bin("union", StateRef("ss", 0, "sp"), StateRef("ss", 1, "sp")), env)
    assert(u == SetV(Set("a", "b", "c")))
    val diffE = Bin("diff", StateRef("ss", 0, "sp"), InvRef("a"))
    assert(eval(diffE, env) == SetV(Set("c")))
    assert(eval(SetCard(diffE), env) == NumV(1))
  }

  test("the paper's Query 3 alert: |ss.set_proc diff a| > 0") {
    val e = Bin(">", SetCard(Bin("diff", StateRef("ss", 0, "sp"), InvRef("a"))), n(0))
    assert(eval(e, env).asBool) // {a,b,c} diff {a,b} = {c}, |{c}| = 1 > 0
  }

  test("the paper's Query 2 alert shape (SMA)") {
    val sma = Bin("/",
      Bin("+", Bin("+", StateRef("ss", 0, "avg"), StateRef("ss", 1, "avg")),
          StateRef("ss", 2, "avg")), n(3))
    val e = Bin("&&", Bin(">", StateRef("ss", 0, "avg"), sma),
                Bin(">", StateRef("ss", 0, "avg"), n(10)))
    assert(eval(e, env).asBool) // 100 > (100+50+0)/3 = 50 && 100 > 10
  }

  test("cluster.outlier pulls from env") {
    assert(eval(ClusterOutlier, env) == BoolV(true))
  }

  test("attr refs delegate to env") {
    assert(eval(AttrRef(FieldRef("i", Some("dstip"))), env) == StrV("attr:i_dstip"))
  }

  test("equality over strings and sets") {
    assert(eval(Bin("==", StrLit("x"), StrLit("x")), env).asBool)
    assert(!eval(Bin("==", StrLit("x"), StrLit("y")), env).asBool)
    assert(eval(Bin("==", EmptySet, EmptySet), env).asBool)
  }

  test("numeric coercion: bool to num, set to cardinality") {
    assert(BoolV(true).asNum == 1.0)
    assert(SetV(Set("a", "b")).asNum == 2.0)
    assert(NumV(1.0).asBool)
    assert(!NumV(0.0).asBool)
  }

  test("render formats") {
    assert(NumV(5.0).render == "5")
    assert(NumV(5.5).render == "5.5")
    assert(SetV(Set("b", "a")).render == "{a,b}")
    assert(StrV("x").render == "x")
  }

  test("x / 0 is NaN, and every comparison with NaN is false") {
    for (x <- Seq(0.0, 1.0, -1.0)) {
      val q = Bin("/", n(x), n(0))
      assert(eval(q, env).asNum.isNaN, s"$x / 0")
      for (op <- Seq(">", "<", ">=", "<=", "==", "!=")) {
        assert(!eval(Bin(op, q, n(1)), env).asBool, s"$x / 0 $op 1")
        assert(!eval(Bin(op, n(1), q), env).asBool, s"1 $op $x / 0")
      }
      assert(!eval(q, env).asBool, s"$x / 0 as an alert")
      assert(!eval(Bin("||", Bin(">", q, n(-1e300)), Bin("<", q, n(1e300))), env).asBool)
    }
    assert(NumV(Double.NaN).render == "NaN")
  }

  test("unknown operator rejected") {
    intercept[IllegalArgumentException](eval(Bin("%", n(1), n(2)), env))
  }

  test("set used as boolean rejected") {
    intercept[IllegalArgumentException](eval(Bin("&&", EmptySet, n(1)), env))
  }

  test("labels for return items are stable and column-safe") {
    assert(Eval.label(AttrRef(FieldRef("i1", Some("dstip")))) == "i1_dstip")
    assert(Eval.label(StateRef("ss", 0, "avg_amount")) == "ss_avg_amount")
    assert(Eval.label(StateRef("ss", 2, "avg_amount")) == "ss2_avg_amount")
    assert(Eval.label(SetCard(StateRef("ss", 0, "sp"))) == "card_ss_sp")
  }

  test("round-trip: parsed Query 2 alert evaluates against env") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 min)
        |state[3] ss { avg := avg(evt.amount) } group by p
        |alert (ss[0].avg > (ss[0].avg + ss[1].avg + ss[2].avg) / 3) && (ss[0].avg > 10)
        |return p""".stripMargin)
    assert(eval(q.alert.get, env).asBool)
  }
}
