package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, when}
import repro.events.SystemEvent
import Eval.{NumV, SetV, Value}

/** The scheduler's dependents, and the master's copy of the stream they
  * read: every plan evaluated on the driver over the copy, fed in `ts`
  * order, at once (a bounded run) or one micro-batch at a time. The copy
  * ([[copy]]) is laid out here, so its rows are read by position: the
  * plans' reads in schema order, then the atom words, one bit per distinct
  * atom, so Catalyst tests each atom once per row, and a pattern tags a row
  * where all of its atoms' bits are set. The watermark is the largest `ts`
  * fed; a row below the watermark of the earlier batches is late and
  * dropped.
  *   - A rule plan keeps its patterns' tagged rows and joins each batch's
  *     as the delta of a left-deep hash join in chain order (the matches of
  *     [[EventMatcher.matches]]); its alerts are final at once.
  *   - The stateful plans with the same window and group-key columns share
  *     one table of open (window, group) slots, each holding its members'
  *     own accumulators, so a row is windowed and keyed once for all of
  *     them; a window whose end is at or below the watermark goes once to
  *     each member's [[QueryEngine.evaluator]].
  */
final class Dependents(plans: Seq[QueryPlan]) {
  import Dependents._

  /** The copy's event columns, each one's position, and `ts`'s. */
  private val columns = SystemEvent.columns.filter(plans.flatMap(_.reads).toSet)
  private val at = columns.zipWithIndex.toMap
  private val ts = columns.indexOf("ts")
  private var watermark = Long.MinValue

  /** The distinct atoms of the plans' patterns, in plan and chain order. */
  private val atoms = plans.flatMap(_.conjunctions).flatten.distinct

  /** Each distinct atom's position `i`: bit `i % 64` of word `i / 64`. */
  private val index = atoms.zipWithIndex.toMap
  private val wordCount = (atoms.size + 63) / 64

  /** The copy's filter and columns, built once for every copy made, and
    * only when one is: the event columns, then the atom words, where an
    * atom's bit is set if its Catalyst test is true; a null or false test
    * leaves it unset.
    */
  private lazy val filter = Atom.any(plans.flatMap(_.conjunctions))
  private lazy val projection = columns.map(col) ++ atoms.grouped(64).zipWithIndex.map { case (as, k) =>
    as.zipWithIndex.map { case (a, i) => when(a.predicate, 1L << i).otherwise(0L) }.reduce(_ bitwiseOR _).as(s"__atoms$k")
  }

  /** The master's copy of `events` for the plans: the events some plan could
    * match (one filter, factored on the atoms the plans share), the event
    * columns the dependents read ([[QueryPlan.reads]], in schema order) and
    * the atom words. Its per-row code must stay small enough for the JIT to
    * compile.
    */
  def copy(events: DataFrame): DataFrame = events.filter(filter).select(projection: _*)

  /** A pattern's mask: per word, the bits of its atoms. */
  private def mask(conjunction: Seq[Atom]): Array[Long] = {
    val m = new Array[Long](wordCount)
    for (a <- conjunction; i = index(a)) m(i / 64) |= 1L << (i % 64)
    m
  }

  /** A copied row's atom words, its last columns, read into `into`. */
  private def readWords(r: Row, into: Array[Long]): Array[Long] = {
    val first = r.length - into.length
    var k = 0
    while (k < into.length) { into(k) = r.getLong(first + k); k += 1 }
    into
  }

  /** Per rule plan, and per group of stateful plans with the same window
    * and group-key columns: the plans' positions, and their evaluator from
    * the next on-time rows and the time windows close at to each plan's
    * alerts that became final.
    */
  private val dependents: Seq[(Seq[Int], (Seq[Row], Long) => Seq[Seq[AlertRecord]])] = {
    val withTags = plans.zipWithIndex.map { case (plan, i) => (plan, plan.conjunctions.map(mask), i) }
    withTags.collect { case (r: RulePlan, tags, i) => Seq(i) -> rule(r, tags) } ++
      withTags.collect { case (s: StatePlan, tags, i) => (s, tags, i) }
        .groupBy { case (s, _, _) => (s.window, s.keys.map(_._2)) }.values
        .map(members => members.map(_._3) -> table(members.map(_._1), members.map(_._2)))
  }

  /** The alerts that became final with `rows`, the next batch of the copy:
    * each plan's in detection order, the plans in order.
    */
  def feed(rows: Seq[Row]): Seq[AlertRecord] = {
    val onTime = rows.filter(_.getLong(ts) >= watermark)
    watermark = onTime.foldLeft(watermark)((w, r) => math.max(w, r.getLong(ts)))
    evaluate(onTime, watermark)
  }

  /** The alerts of the windows still open at the end of a bounded stream. */
  def flush(): Seq[AlertRecord] = evaluate(Nil, Long.MaxValue)

  private def evaluate(rows: Seq[Row], closeAt: Long): Seq[AlertRecord] = {
    val alerts = new Array[Seq[AlertRecord]](plans.size)
    for ((members, run) <- dependents; (i, a) <- members.zip(run(rows, closeAt))) alerts(i) = a
    alerts.toSeq.flatten
  }

  /** A rule plan over its patterns' tagged rows. A match holds one row per
    * pattern in chain order, and a [[MatchCol]] reads its column of its
    * alias's row. As in Spark, null equals nothing, equal times are not in
    * order, a pattern with no condition is a cross join, and without
    * `distinct` every match is an alert; `distinct` reports each returned
    * row once, at its earliest detection.
    */
  private def rule(plan: RulePlan, tags: Seq[Array[Long]]): (Seq[Row], Long) => Seq[Seq[AlertRecord]] = {
    val chainIndex = plan.patterns.map(_.alias).zipWithIndex.toMap
    def get(m: Seq[Row], c: MatchCol): Any = m(chainIndex(c.alias)).get(at(c.column))
    def matches(sides: Seq[Seq[Row]]): Seq[Vector[Row]] =
      plan.patterns.zip(sides).foldLeft(Seq(Vector.empty[Row])) { case (partial, (p, side)) =>
        val (lefts, rights) = p.equalities.unzip
        val byKey = side.groupBy(r => rights.map(c => r.get(at(c.column))))
        partial.flatMap { m =>
          val key = lefts.map(get(m, _))
          if (key.contains(null)) Nil
          else byKey.getOrElse(key, Nil).map(m :+ _).filter(n =>
            p.before.forall { case (a, b) => get(n, a).asInstanceOf[Long] < get(n, b).asInstanceOf[Long] })
        }
      }
    var earlier = tags.map(_ => Vector.empty[Row])
    val reported = mutable.Set.empty[Seq[Any]]
    val words = new Array[Long](wordCount)
    (rows, _) => {
      val fresh = tags.map(t => rows.filter(r => holds(t, readWords(r, words))))
      val all = earlier.zip(fresh).map { case (e, f) => e ++ f }
      // A new match's first fresh row is pattern k's: the patterns before k
      // read earlier rows, those after it all rows.
      val found = fresh.indices.map(k => earlier.take(k) ++ Seq(fresh(k)) ++ all.drop(k + 1))
        .filter(_.forall(_.nonEmpty)).flatMap(matches)
        .map(m => plan.returns.map(r => get(m, r._2)) -> m.map(_.getLong(ts)).max)
      earlier = all
      val kept = if (!plan.query.ret.distinct) found
        else found.groupMapReduce(_._1)(_._2)(math.min).toSeq.filter(f => reported.add(f._1))
      Seq(QueryEngine.ordered(kept.map { case (values, t) =>
        AlertRecord(plan.name, -1L, t, plan.returns.map(_._1).zip(values.map(v => String.valueOf(v))).toMap)
      }))
    }
  }

  /** Stateful plans with the same window and group-key columns, over one
    * table of open (window, group) slots. A row that some member's pattern
    * tags renders its group key as [[StateMaintainer.collectStates]]
    * does and, in every window [[StateMaintainer.windowsOf]] puts it in,
    * adds to the slot's accumulators of each member it is tagged for. A
    * member's accumulators are made by its first row in the slot, so its
    * evaluator gets only its own groups and windows.
    */
  private def table(members: Seq[StatePlan], tags: Seq[Seq[Array[Long]]]): (Seq[Row], Long) => Seq[Seq[AlertRecord]] = {
    val w = members.head.window
    val keys = members.head.keys.map(k => at(k._2))
    val memberTags = tags.map(_.toArray).toArray
    val inputs = members.map(_.aggs.map(a => at(a.column)).toArray).toArray
    val evaluators = members.map(QueryEngine.evaluator)
    val n = members.size
    val tagged = new Array[Boolean](n)
    val words = new Array[Long](wordCount)
    // Open window -> group key -> each member's accumulators, null where it has no row.
    val open = mutable.TreeMap.empty[Long, mutable.HashMap[Seq[String], Array[Array[Acc]]]]
    def add(r: Row): Unit = {
      readWords(r, words)
      var any = false
      var m = 0
      while (m < n) {
        val t = memberTags(m)
        var k = 0
        while (k < t.length && !holds(t(k), words)) k += 1
        tagged(m) = k < t.length
        any |= tagged(m)
        m += 1
      }
      if (any) {
        val key = keys.map(i => String.valueOf(r.get(i)))
        for (win <- StateMaintainer.windowsOf(r.getLong(ts), w)) {
          val slot = open.getOrElseUpdate(win, mutable.HashMap.empty).getOrElseUpdate(key, new Array(n))
          m = 0
          while (m < n) {
            if (tagged(m)) {
              if (slot(m) == null) slot(m) = members(m).aggs.map(a => Acc(a.func)).toArray
              val accs = slot(m)
              val in = inputs(m)
              var j = 0
              while (j < accs.length) {
                if (!r.isNullAt(in(j))) accs(j).add(r.get(in(j)))
                j += 1
              }
            }
            m += 1
          }
        }
      }
    }
    (rows, closeAt) => {
      rows.foreach(add)
      val closed = open.keysIterator.takeWhile(win => win * w.slideMs + w.lengthMs <= closeAt).toSeq
        .map(win => win -> open.remove(win).get)
      members.indices.map { m =>
        evaluators(m)(closed.flatMap { case (win, groups) =>
          val states = groups.collect { case (key, accs) if accs(m) != null =>
            key -> members(m).aggs.map(_.name).zip(accs(m).map(_.value)).toMap
          }.toMap
          if (states.isEmpty) None else Some(win -> states)
        })
      }
    }
  }
}

object Dependents {

  /** Whether a row's atom `words` hold every bit of a pattern's `mask`. */
  private def holds(mask: Array[Long], words: Array[Long]): Boolean = {
    var k = 0
    while (k < mask.length && (words(k) & mask(k)) == mask(k)) k += 1
    k == mask.length
  }

  /** A running state aggregate over non-null inputs, with the values of
    * [[StateMaintainer.aggregates]]: an empty one reads 0, and an integral
    * sum is exact, so it overflows as Spark's ANSI `sum` does.
    */
  private abstract class Acc {
    def add(x: Any): Unit
    def value: Value
  }

  private object Acc {
    def apply(func: String): Acc = func match {
      case "avg" => new Acc {
        private var sum = 0.0
        private var n = 0L
        def add(x: Any): Unit = { sum += x.asInstanceOf[Long]; n += 1 }
        def value: Value = NumV(if (n == 0) 0.0 else sum / n)
      }
      case "sum" => new Acc {
        private var sum = 0L
        def add(x: Any): Unit = sum = Math.addExact(sum, x.asInstanceOf[Long])
        def value: Value = NumV(sum.toDouble)
      }
      case "count" => new Acc {
        private var n = 0L
        def add(x: Any): Unit = n += 1
        def value: Value = NumV(n.toDouble)
      }
      case "max" | "min" => new Acc {
        private var best: Option[Long] = None
        def add(x: Any): Unit = {
          val v = x.asInstanceOf[Long]
          best = Some(best.fold(v)(b => if (func == "max") math.max(b, v) else math.min(b, v)))
        }
        def value: Value = NumV(best.fold(0.0)(_.toDouble))
      }
      case "set" => new Acc {
        private val set = mutable.Set.empty[String]
        def add(x: Any): Unit = set += String.valueOf(x)
        def value: Value = SetV(set.toSet)
      }
    }
  }
}
