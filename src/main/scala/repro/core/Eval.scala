package repro.core

import repro.saql.Ast._

/** Driver-side evaluation of SAQL alert / invariant / return expressions.
  *
  * These expressions run over the (small) per-window state rows that the
  * state maintainer aggregates with Spark, so evaluation happens on the
  * driver — mirroring SAQL's engine, where alert checking is a scalar
  * post-pass over window states, not a distributed job.
  */
object Eval {

  /** Runtime values: numbers, strings, booleans and string-sets (for the
    * `set(...)` aggregate and invariant variables). Division by zero is
    * NaN, whatever the dividend; every comparison with NaN is false, and
    * NaN as a boolean is false, so an alert over it never fires.
    */
  sealed trait Value {
    def asNum: Double = this match {
      case NumV(v)  => v
      case StrV(s)  => s.toDoubleOption.getOrElse(
        throw new IllegalArgumentException(s"not a number: '$s'"))
      case BoolV(b) => if (b) 1.0 else 0.0
      case SetV(s)  => s.size.toDouble
    }
    def asBool: Boolean = this match {
      case BoolV(b) => b
      case NumV(v)  => v != 0.0 && !v.isNaN
      case v        => throw new IllegalArgumentException(s"not a boolean: $v")
    }
    def asSet: Set[String] = this match {
      case SetV(s) => s
      case StrV(s) => Set(s)
      case v       => throw new IllegalArgumentException(s"not a set: $v")
    }
    def render: String = this match {
      case NumV(v)  => if (v == v.floor && !v.isInfinite) v.toLong.toString else v.toString
      case StrV(s)  => s
      case BoolV(b) => b.toString
      case SetV(s)  => s.toSeq.sorted.mkString("{", ",", "}")
    }
  }
  final case class NumV(v: Double) extends Value
  final case class StrV(s: String) extends Value
  final case class BoolV(b: Boolean) extends Value
  final case class SetV(s: Set[String]) extends Value

  /** Name-resolution environment provided by the model evaluators. */
  trait Env {
    /** `ss[idx].field` — missing windows/groups yield numeric 0 / empty set. */
    def stateRef(idx: Int, field: String): Value
    /** Entity / event attribute of the current group (e.g. the group key). */
    def attrRef(ref: FieldRef): Value
    /** Invariant variable value. */
    def invRef(name: String): Value
    /** DBSCAN verdict for the current group's point. */
    def clusterOutlier: Boolean
  }

  def eval(e: Expr, env: Env): Value = e match {
    case NumLit(v)      => NumV(v)
    case StrLit(s)      => StrV(s)
    case EmptySet       => SetV(Set.empty)
    case ClusterOutlier => BoolV(env.clusterOutlier)
    case StateRef(_, idx, field) => env.stateRef(idx, field)
    case AttrRef(ref)   => env.attrRef(ref)
    case InvRef(n)      => env.invRef(n)
    case SetCard(x)     => NumV(eval(x, env).asSet.size.toDouble)
    case Bin(op, l, r)  =>
      op match {
        case "&&" => BoolV(eval(l, env).asBool && eval(r, env).asBool)
        case "||" => BoolV(eval(l, env).asBool || eval(r, env).asBool)
        case "union" => SetV(eval(l, env).asSet union eval(r, env).asSet)
        case "diff"  => SetV(eval(l, env).asSet diff eval(r, env).asSet)
        case "+" => NumV(eval(l, env).asNum + eval(r, env).asNum)
        case "-" => NumV(eval(l, env).asNum - eval(r, env).asNum)
        case "*" => NumV(eval(l, env).asNum * eval(r, env).asNum)
        case "/" =>
          val (x, y) = (eval(l, env).asNum, eval(r, env).asNum)
          NumV(if (y == 0.0) Double.NaN else x / y)
        case "==" | "=" => BoolV(equalValues(eval(l, env), eval(r, env)))
        case "!=" =>
          val (x, y) = (eval(l, env), eval(r, env))
          BoolV(!equalValues(x, y) && !Seq(x, y).exists { case NumV(v) => v.isNaN; case _ => false })
        case ">"  => BoolV(eval(l, env).asNum >  eval(r, env).asNum)
        case "<"  => BoolV(eval(l, env).asNum <  eval(r, env).asNum)
        case ">=" => BoolV(eval(l, env).asNum >= eval(r, env).asNum)
        case "<=" => BoolV(eval(l, env).asNum <= eval(r, env).asNum)
        case o    => throw new IllegalArgumentException(s"unknown operator '$o'")
      }
  }

  private def equalValues(a: Value, b: Value): Boolean = (a, b) match {
    case (StrV(x), StrV(y)) => x == y
    case (SetV(x), SetV(y)) => x == y
    case (x, y)             => x.asNum == y.asNum
  }

  /** Stable display label for a return item (used as alert column name). */
  def label(e: Expr): String = e match {
    case AttrRef(ref)            => ref.colName
    case StateRef(s, 0, f)       => s"${s}_$f"
    case StateRef(s, i, f)       => s"${s}${i}_$f"
    case SetCard(x)              => s"card_${label(x)}"
    case InvRef(n)               => n
    case ClusterOutlier          => "cluster_outlier"
    case NumLit(v)               => v.toString
    case StrLit(s)               => s
    case EmptySet                => "empty_set"
    case Bin(op, l, r)           => s"${label(l)}_${opName(op)}_${label(r)}"
  }

  private def opName(op: String): String = op match {
    case "+"  => "plus"
    case "-"  => "minus"
    case "*"  => "times"
    case "/"  => "div"
    case "&&" => "and"
    case "||" => "or"
    case _    => op.filter(_.isLetterOrDigit)
  }
}
