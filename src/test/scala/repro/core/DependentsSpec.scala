package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.events.AttackTrace
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery
import TestEvents.{df, file}

/** The scheduler's dependents fed batch by batch: however a `ts`-ordered
  * master copy is cut, the batches' alerts and the flush are the alerts of
  * the whole copy fed at once.
  */
class DependentsSpec extends SparkSpec {

  private lazy val attack = AttackTrace.withBackground(spark, sf = 0.002, seed = 0,
    attackStartMs = 1_800_000L).cache()
  private lazy val demo = repro.queries.DemoQueries.all().map(_._2)

  /** The master copy of `events` for `queries`: its columns, and its rows in `ts` order. */
  private def sortedCopy(events: DataFrame, queries: Seq[SaqlQuery]): (Seq[String], Seq[Row]) = {
    val copy = Scheduler.masterCopy(events, queries.map(Columns.compile))
    val ts = copy.columns.indexOf("ts")
    (copy.columns.toSeq, copy.collect().toSeq.sortBy(_.getLong(ts)))
  }

  /** Each query's alerts from `batches` fed in turn and then flushed, as
    * sorted multisets.
    */
  private def fed(queries: Seq[SaqlQuery], columns: Seq[String], batches: Seq[Seq[Row]]): Map[String, Seq[String]] = {
    val dependents = new Dependents(queries.map(Columns.compile), columns)
    val alerts = (batches.flatMap(dependents.feed) ++ dependents.flush()).groupBy(_.query)
    queries.map(q => q.name -> alerts.getOrElse(q.name, Nil).map(_.toString).sorted).toMap
  }

  private def batchAlerts(events: DataFrame, queries: Seq[SaqlQuery]): Map[String, Seq[String]] =
    Scheduler.runMasterDependent(events, queries).alerts.map { case (q, a) => q -> a.map(_.toString).sorted }

  /** `rows` cut before each of the positions `cuts`. */
  private def cut(rows: Seq[Row], cuts: Seq[Int]): Seq[Seq[Row]] = {
    val bounds = (0 +: cuts.sorted.distinct :+ rows.size).distinct
    bounds.zip(bounds.tail).map { case (from, to) => rows.slice(from, to) }
  }

  test("the 8 demo queries fed in any cut of the ts-ordered attack copy raise runMasterDependent's alerts") {
    val (columns, rows) = sortedCopy(attack, demo)
    val expected = batchAlerts(attack, demo)
    assert(expected.values.count(_.nonEmpty) >= 6, expected)
    assert(fed(demo, columns, Seq(rows)) == expected, "one batch")
    val fifty = cut(rows, (1 until 50).map(_ * rows.size / 50))
    assert(fifty.size == 50 && fed(demo, columns, fifty) == expected, "50 batches")
    val cuts = Gen.choose(0, 50).flatMap(n => Gen.listOfN(n, Gen.choose(1, rows.size - 1)))
    val params = SCTest.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(10L))
    val res = SCTest.check(params, Prop.forAll(cuts)(c => fed(demo, columns, cut(rows, c)) == expected))
    assert(res.passed, res.status.toString)
  }

  test("a pattern's event that arrives before the earlier patterns' still completes the match") {
    def shared(name: String, exes: String*): SaqlQuery = Parser.parse(
      exes.zipWithIndex.map { case (e, i) =>
        s"""proc p$i["%$e"] ${if (i == 0) "write" else "read"} file f1 as evt$i"""
      }.mkString("", "\n", "\nreturn p0, f1"), name)
    val queries = Seq(shared("two", "a.exe", "b.exe"), shared("three", "a.exe", "b.exe", "c.exe"))
    // Without `with`, the patterns are in no time order: the later patterns' events come first.
    val evs = Seq(file(0, 1000L, "c.exe", "read", "/x"), file(0, 1500L, "b.exe", "read", "/y"),
      file(0, 2000L, "b.exe", "read", "/x"), file(0, 3000L, "a.exe", "write", "/x"))
    val events = df(spark, evs)
    val (columns, rows) = sortedCopy(events, queries)
    val oneByOne = fed(queries, columns, rows.map(Seq(_)))
    assert(oneByOne == batchAlerts(events, queries))
    assert(oneByOne == queries.map(q => q.name -> Seq(s"[${q.name}] ts=3000 win=-1 f1=/x, p0=a.exe")).toMap)
  }
}
