package perfbench

import perfbench.Check.ensure
import perfbench.CountingFileSystemWrapper._
import repro.bench.Harness
import repro.datagen.CriteoLite
import repro.evaluator.{Accuracy, Evaluator, RocAuc}
import repro.modelstorage.ModelStorage
import repro.selector._
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer._
import scala.collection.mutable

/** One Criteo-lite workload: how the stream is selected and how the
  * selection is cut into partitions and retrieved.
  *
  * @param selectedShare      share of the informed stream the policy keeps
  *                           (None: all of it)
  * @param deterministicOrder the batch key order repeats exactly (one
  *                           storage thread, one prefetch request), so a
  *                           digest of it is checked across passes and runs
  */
final case class CriteoSpec(name: String, backend: String, strategy: String,
                            strategyConfig: Map[String, String], partitionSize: Int,
                            storageThreads: Int, selectedShare: Option[Double],
                            deterministicOrder: Boolean)

object CriteoWorkload {
  val NumSamples        = 300000
  val SamplesPerFile    = 1800
  val BatchSize         = 2048
  val Workers           = 4
  val Prefetched        = 2
  val ParallelRequests  = 1
  val SendBuffer        = 2048
  val TssWriters        = 4
  val ReplayBatch       = 1000
  val EvalSamples       = 15000
  val LocalReps         = 3
  val FullModelInterval = 5
  val HashDim           = 128
  /** A model trained for one epoch ranks clicks clearly better than chance. */
  val MinAuc            = 0.55

  val Full75k = CriteoSpec("criteo-full-75k", "local", "NewDataStrategy",
    Map("reset_after_trigger" -> "true"), partitionSize = 75000, storageThreads = 2,
    selectedShare = None, deterministicOrder = false)

  val Uniform3k = CriteoSpec("criteo-uniform-3k", "database", "UniformRandomStrategy",
    Map("reset_after_trigger" -> "true", "fraction" -> "0.5"), partitionSize = 3000,
    storageThreads = 1, selectedShare = Some(0.5), deterministicOrder = true)
}

/** Criteo-lite pass: inform the whole stream into the selector, trigger
  * once, train one epoch through the OnlineDataset, store and reload the
  * model, evaluate it on the newest samples, then run the §5.1.1
  * LocalFileDataset baseline over the same files with the same loop.
  */
final class CriteoWorkload(spec: CriteoSpec, rc: RunContext) extends Workload {
  import CriteoWorkload._

  private val plainFs = new LocalFileSystemWrapper
  private val parser  = new CriteoBytesParser(HashDim)
  private val tr      = rc.tracer
  private val digests = mutable.LinkedHashSet.empty[String]

  private var setupDir: String              = _
  private var registry: SampleRegistry      = _
  private var dataFiles: Seq[String]        = _
  private var stream: Seq[Seq[NewSample]]   = _
  private var evalKeys: Array[Long]         = _
  private var countingFs: CountingFileSystemWrapper = _
  private var plainStorage: StorageService  = _
  private var countedStorage: StorageService = _
  /** TSS of the latest traced pass, kept for the replays. */
  private var lastTraced: Option[(String, TriggerTrainingSet)] = None

  override def setup(dir: String): Long = {
    val previous = Option(setupDir)
    val reg      = new SampleRegistry
    val t0       = System.nanoTime()
    val metas    = CriteoLite.generate(plainFs, reg, s"$dir/data", NumSamples, SamplesPerFile, rc.seed)
    val ns       = System.nanoTime() - t0
    ensure(metas.length == NumSamples && reg.numSamples == NumSamples,
      s"ingested ${reg.numSamples} samples, expected $NumSamples")
    Option(registry).foreach(_.close())
    previous.foreach(Dirs.deleteTree)
    setupDir   = dir
    registry   = reg
    dataFiles  = plainFs.list(s"$dir/data")
    stream     = metas.map(m => NewSample(m.key, m.label, m.timestampSec)).grouped(ReplayBatch).toSeq
    evalKeys   = metas.takeRight(EvalSamples).map(_.key).toArray
    countingFs = new CountingFileSystemWrapper(plainFs, s"$dir/data")
    plainStorage   = new StorageService(registry, plainFs, SendBuffer)
    countedStorage = new StorageService(registry, countingFs, SendBuffer)
    ns
  }

  private def datasetConfig =
    OnlineDatasetConfig(Workers, BatchSize, Prefetched, ParallelRequests, spec.storageThreads)

  override def pass(p: Int, traced: Boolean, out: PassOutcome): Unit = {
    val expected = spec.selectedShare.fold(NumSamples)(f => math.ceil(f * NumSamples).toInt)
    val fs      = if (traced) countingFs else plainFs
    val storage = if (traced) countedStorage else plainStorage
    val dir     = s"${rc.workDir}/pass_$p"
    val start   = System.nanoTime()

    tr.timed("pass") {
      // Selection: inform the stream in replay batches, then trigger.
      val io0 = countingFs.snapshot()
      val selection = rc.op("select") {
        val backend = StrategyFactory.backend(spec.backend, fs, s"$dir/selector", None)
        try {
          val ctx = SelectorContext(backend, new TriggerSampleStorage(fs, s"$dir/tss"),
            spec.partitionSize, TssWriters, rc.seed)
          val strategy = StrategyFactory.strategy(spec.strategy, spec.strategyConfig, None, ctx)
          var informNs = 0L
          stream.foreach(chunk => informNs += tr.timed("selector.inform")(strategy.inform(chunk))._2)
          val (tts, triggerNs) = tr.timed("selector.on_trigger")(strategy.onTrigger())
          ensure(tts.totalSamples == expected,
            s"selected ${tts.totalSamples} samples, expected $expected")
          (tts, informNs, triggerNs)
        } finally backend.close()
      }
      val io1 = countingFs.snapshot()

      // Training: one epoch through the OnlineDataset.
      val model  = Harness.criteoModel(HashDim)
      val keyLog = new KeyLog
      val training = selection match {
        case None => rc.skipped("train"); None
        case Some((tts, _, _)) => rc.op("train") {
          val ds = new OnlineDataset(new TssSource(tts), storage, parser, IdentityTransform, datasetConfig)
          val st = tr.timed("trainer.epoch")(TrainLoop.run(ds.batches(), model, tr)(keyLog.add))._1
          val io = countingFs.snapshot() - io1
          val leaked = DataPathThreads.alive()
          ensure(leaked.isEmpty, s"data-path threads alive after the epoch: ${leaked.mkString(", ")}")
          val tssContents = new TriggerSampleStorage(plainFs, s"$dir/tss")
          ensure(keyLog.sameMultiset(
            (0 until tts.numPartitions).flatMap(tssContents.readPartition(tts.triggerId, _))),
            "trained (key, weight) pairs differ from the TSS contents of the trigger")
          if (spec.deterministicOrder) digests += keyLog.batchOrderDigest
          (st, io)
        }
      }

      // Model storage: store the trained model and restore it exactly.
      val io2 = countingFs.snapshot()
      val stored = training match {
        case None => rc.skipped("model_store"); None
        case Some(_) => rc.op("model_store") {
          // Each pass is a fresh pipeline, so its model is model 0, a full model.
          val ms = new ModelStorage(fs, s"$dir/models", FullModelInterval)
          val (bytes, _) = tr.timed("modelstorage.store")(ms.store(0, model.weights))
          val (w, _)     = tr.timed("modelstorage.load")(ms.load(0))
          ensure(java.util.Arrays.equals(w, model.weights), s"model $p did not restore exactly")
          (bytes, w)
        }
      }
      val io3 = countingFs.snapshot()

      // Evaluation of the restored model on the newest samples.
      val evaluated = stored match {
        case None => rc.skipped("evaluate"); None
        case Some((_, w)) => rc.op("evaluate") {
          val m = Harness.criteoModel(HashDim)
          m.setWeights(w)
          val (res, ns) = tr.timed("evaluator.evaluate")(Evaluator.evaluate(m,
            evalFeatures(storage), Seq(new Accuracy), Seq(new RocAuc)))
          ensure(res.forall(_.numSamples == EvalSamples), s"evaluated ${res.map(_.numSamples)} samples")
          val auc = res.find(_.metric == "RocAuc").get.value
          ensure(auc > MinAuc, f"ROC-AUC $auc%.3f of the trained model is not above $MinAuc")
          (res.find(_.metric == "Accuracy").get.value, ns)
        }
      }
      val pipelineNs = System.nanoTime() - start

      // The §5.1.1 baseline: every sample of every file, no selection. It
      // is short, so it runs `LocalReps` times and the pass reports the
      // median. Its models are evaluated on the same set, so final_acc can be
      // given relative to them: accuracy itself depends on the seed's click
      // rate, the ratio does not.
      val local = (0 until LocalReps).flatMap(_ => rc.op("local_baseline") {
        val ds = new LocalFileDataset(fs, dataFiles, CriteoLite.RecordSize, parser,
          IdentityTransform, Workers, BatchSize)
        val m  = Harness.criteoModel(HashDim)
        val st = tr.timed("trainer.local_epoch")(TrainLoop.run(ds.batches(), m, tr)(_ => ()))._1
        ensure(st.samples == NumSamples, s"local baseline yielded ${st.samples} samples")
        val acc = Evaluator.evaluate(m, evalFeatures(storage)).head
        ensure(acc.numSamples == EvalSamples, s"evaluated ${acc.numSamples} samples")
        (st, acc.value)
      })
      val localSps = local.map(_._1.samplesPerSec)

      for ((_, informNs, triggerNs) <- selection)
        out.e2e("select_samples_per_s") = NumSamples / ((informNs + triggerNs) / 1e9)
      for ((st, _) <- training) out.e2e("train_samples_per_s") = st.samplesPerSec
      if (local.nonEmpty) out.e2e("local_samples_per_s") = Stats.median(localSps)
      if (evaluated.nonEmpty) out.e2e("pipeline_s") = pipelineNs / 1e9
      for ((acc, _) <- evaluated if local.nonEmpty)
        out.e2e("final_acc") = acc / Stats.median(local.map(_._2))

      if (traced) {
        val l = out.layers
        for ((tts, informNs, triggerNs) <- selection) {
          val sel = io1 - io0
          val tssWriteNs = Stats.unionLength(countingFs.drainTssWrites())
          l("selector.inform_ms")      = informNs / 1e6
          l("selector.select_ms")      = (triggerNs - tssWriteNs) / 1e6
          l("selector.tss_write_ms")   = tssWriteNs / 1e6
          l("selector.tss_write_bytes") = sel.byteCount(Tss, Write).toDouble
          lastTraced.foreach { case (d, _) => Dirs.deleteTree(d) }
          lastTraced = Some((dir, tts))
        }
        for ((st, io) <- training) {
          val n = st.samples.toDouble
          l("storage.read_calls_per_sample") = io.count(Data, Read, ReadAll) / n
          l("storage.read_bytes_per_sample") = io.byteCount(Data, Read, ReadAll) / n
          l("storage.size_calls_per_sample") = io.count(Data, Size) / n
          l("selector.tss_read_ms")    = io.millis(Tss, Read, ReadAll, Size, List)
          l("selector.tss_list_calls") = io.count(Tss, List).toDouble
          l("selector.tss_read_calls") = io.count(Tss, Read, ReadAll).toDouble
          l("trainer.batch_wait_ms_p50") = Stats.median(st.batchWaitMs)
          l("trainer.batches")         = st.batches.toDouble
          l("trainer.stall_share")     = st.totalWaitNs.toDouble / st.wallNs
          l("trainer.step_ms")         = st.stepNs / 1e6
          l("trainer.samples_trained") = n
          out.batchWaitsMs = st.batchWaitMs
        }
        for ((bytes, _) <- stored) {
          val io = io3 - io2
          l("modelstorage.bytes_per_model") = bytes.toDouble
          l("modelstorage.write_ms") = io.millis(Models, Write)
          l("modelstorage.read_ms")  = io.millis(Models, Read, ReadAll)
          l("modelstorage.reads")    = io.count(Models, Read, ReadAll).toDouble
        }
        for ((_, ns) <- evaluated) {
          l("evaluator.samples_evaluated") = EvalSamples.toDouble
          l("evaluator.eval_ms_per_set")   = ns / 1e6
        }
        if (local.nonEmpty) {
          l("trainer.local_batch_wait_ms_p50") = Stats.median(local.map(l => Stats.median(l._1.batchWaitMs)))
          for ((st, _) <- training) l("modyn_local_ratio") = st.samplesPerSec / Stats.median(localSps)
        }
      }
    }
    if (!lastTraced.exists(_._1 == dir)) Dirs.deleteTree(dir)
  }

  /** The eval path of the supervisor: retrieve, then parse. */
  private def evalFeatures(storage: StorageService): Iterator[(Array[Float], Int)] =
    storage.retrieve(evalKeys, nThreads = 4).flatMap { c =>
      (0 until c.size).iterator.map(i => (parser.parse(c.payloads(i)), c.labels(i).toInt))
    }

  override def finish(): Unit = if (spec.deterministicOrder) {
    rc.op("batch_order_digest") {
      ensure(digests.size == 1, s"batch order differs across passes: ${digests.mkString(", ")}")
      DigestLog.check(rc, spec.name, digests.head)
    }
  }

  override def replays(out: mutable.Map[String, Double]): Unit = lastTraced.foreach { case (dir, tts) =>
    val tss = new TriggerSampleStorage(plainFs, s"$dir/tss")
    val shares = for {
      part <- 0 until tts.numPartitions
      w    <- 0 until Workers
    } yield tss.readWorkerShare(tts.triggerId, part, w, Workers).map(_.key).toArray

    rc.op("replay_lookup") {
      // The requests the retrieval threads made: each worker share split
      // into `storageThreads` contiguous parts, as the storage service does.
      val requests = shares.flatMap(Replay.splitEven(_, spec.storageThreads)).filter(_.nonEmpty)
      val ms = Replay.lookupMs(registry, requests)
      out("storage.lookup_ms_per_request") = ms.sum / ms.length
      out("storage.lookup_requests") = ms.length.toDouble
    }
    rc.op("replay_retrieve_parse") {
      val (payloads, ns) = Replay.retrieve(plainStorage, shares, spec.storageThreads)
      ensure(payloads.length == tts.totalSamples, s"replay retrieved ${payloads.length} samples")
      out("storage.retrieve_samples_per_s") = payloads.length / (ns / 1e9)
      out("trainer.parse_us_per_sample") = Replay.parseUsPerSample(parser, IdentityTransform, payloads)
    }
  }

  override def close(): Unit = Option(registry).foreach(_.close())
}
