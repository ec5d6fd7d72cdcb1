package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import repro.TestOps._
import repro.TestUtil.withTmpDir

class StorageServiceSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** n files of m 16-byte records each; label(i,j) = file i * 1000 + idx j. */
  private def setup(dir: String, nFiles: Int, perFile: Int): (SampleRegistry, IndexedSeq[SampleMeta]) = {
    val r = new SampleRegistry
    (r, (0 until nFiles).flatMap(addFile(r, dir, _, perFile)))
  }

  private def addFile(r: SampleRegistry, dir: String, f: Int, perFile: Int): IndexedSeq[SampleMeta] = {
    val bytes = new Array[Byte](perFile * 16)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    (0 until perFile).foreach(j => bb.putInt(j * 16, f * 1000 + j))
    fs.write(s"$dir/f$f.bin", bytes)
    r.ingestFile(fs, s"$dir/f$f.bin", FileWrapperType.Binary(16))
  }

  test("retrieveAll returns every requested key exactly once") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 4, 50)
      val svc  = new StorageService(r, fs, sendBufferSize = 16)
      val keys = metas.map(_.key).filter(_ % 3 == 0).toArray
      val got  = svc.retrieveAll(keys, nThreads = 1)
      assert(got.keys.sorted.toSeq == keys.sorted.toSeq)
      r.close()
    }
  }

  test("payload content and labels match the source records") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 3, 20)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.foreach { m =>
        val i = byKey(m.key)
        assert(got.labels(i) == m.label)
        val lbl = ByteBuffer.wrap(got.payloads(i)).order(ByteOrder.LITTLE_ENDIAN).getInt
        assert(lbl.toLong == m.label)
      }
      r.close()
    }
  }

  test("multi-threaded retrieval covers all keys") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 6, 100)
      val svc = new StorageService(r, fs, sendBufferSize = 32)
      (1 to 8).foreach { t =>
        val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = t)
        assert(got.keys.sorted.toSeq == metas.map(_.key).sorted)
      }
      r.close()
    }
  }

  test("streamed batches respect the send buffer size") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 2, 50)
      val svc     = new StorageService(r, fs, sendBufferSize = 10)
      val batches = svc.retrieve(metas.map(_.key).toArray, nThreads = 1).toSeq
      assert(batches.forall(_.size <= 10))
      assert(batches.map(_.size).sum == 100)
      r.close()
    }
  }

  test("arbitrary key subsets across files work") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 5, 40)
      val svc  = new StorageService(r, fs)
      val keys = Array(metas(3).key, metas(199).key, metas(77).key, metas(120).key)
      val got  = svc.retrieveAll(keys, nThreads = 3)
      assert(got.keys.sorted.toSeq == keys.sorted.toSeq)
      r.close()
    }
  }

  test("empty key set yields an empty iterator") {
    withTmpDir { dir =>
      val (r, _) = setup(dir, 1, 5)
      val svc = new StorageService(r, fs)
      assert(svc.retrieve(Array.empty, 4).isEmpty)
      r.close()
    }
  }

  test("unknown key raises a NoSuchElementException") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 1, 5)
      val svc = new StorageService(r, fs)
      val ex = intercept[NoSuchElementException] {
        svc.retrieve(Array(metas.last.key + 1000), 1).toSeq
      }
      assert(ex.getMessage.contains("unknown sample keys"))
      r.close()
    }
  }

  test("a retrieval thread failing after it emitted buffers fails the consumer") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 2, 40)
      // One thread reads f0 first; its 40 samples fill four 10-sample
      // buffers before the missing f1 fails the thread.
      fs.delete(s"$dir/f1.bin")
      val svc = new StorageService(r, fs, sendBufferSize = 10)
      val consumer = Future(svc.retrieve(metas.map(_.key).toArray, nThreads = 1).toList)
      intercept[java.nio.file.NoSuchFileException] { Await.result(consumer, 60.seconds) }
      r.close()
    }
  }

  test("one request over a 50 k-record file returns every payload and label in order") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 1, 50000)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 1)
      assert(got.keys.toSeq == metas.map(_.key))
      metas.indices.foreach { j =>
        assert(got.labels(j) == j)
        assert(ByteBuffer.wrap(got.payloads(j)).order(ByteOrder.LITTLE_ENDIAN).getInt == j)
      }
      r.close()
    }
  }

  test("scattered keys mixing single samples and long runs come back in file order") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 3, 2000)
      val idx  = Seq(0, 2) ++ (4 until 1500) ++ Seq(1502, 1999, 2000, 2700) ++
        (2702 until 5990) ++ Seq(5995, 5999)
      val svc  = new StorageService(r, fs, sendBufferSize = 700)
      val keys = new scala.util.Random(3).shuffle(idx.map(metas(_).key)).toArray
      val got  = svc.retrieveAll(keys, nThreads = 1)
      // One thread emits (file, index) order, which is key order here.
      assert(got.keys.toSeq == idx.map(metas(_).key))
      idx.zipWithIndex.foreach { case (i, pos) =>
        assert(got.labels(pos) == metas(i).label)
        assert(ByteBuffer.wrap(got.payloads(pos)).order(ByteOrder.LITTLE_ENDIAN).getInt ==
          metas(i).label)
      }
      r.close()
    }
  }

  test("more threads than keys still works") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 1, 3)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 8)
      assert(got.size == 3)
      r.close()
    }
  }

  test("duplicate retrievals are deterministic in content") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 3, 30)
      val svc  = new StorageService(r, fs)
      val keys = metas.map(_.key).toArray
      val a = svc.retrieveAll(keys, 2)
      val b = svc.retrieveAll(keys, 2)
      assert(a.keys.sorted.toSeq == b.keys.sorted.toSeq)
      val mapA = a.keys.zip(a.labels).toMap
      val mapB = b.keys.zip(b.labels).toMap
      assert(mapA == mapB)
      r.close()
    }
  }

  test("single-sample files retrieve correctly") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = (0 until 10).flatMap { i =>
        fs.write(s"$dir/s$i.bin", Array.fill(8)(i.toByte))
        fs.write(s"$dir/s$i.bin.label", i.toString.getBytes)
        r.ingestFile(fs, s"$dir/s$i.bin", FileWrapperType.SingleSample)
      }
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.foreach { m =>
        val i = byKey(m.key)
        assert(got.labels(i) == m.label)
        assert(got.payloads(i).forall(_ == m.label.toByte))
      }
      r.close()
    }
  }

  test("retrieval of ingested keys stays correct while more files are ingested") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 100, 2)
      val svc  = new StorageService(r, fs, sendBufferSize = 16)
      val keys = metas.map(_.key).toArray
      val failure  = new java.util.concurrent.atomic.AtomicReference[Throwable](null)
      val ingester = new Thread(() =>
        try (100 until 400).foreach(addFile(r, dir, _, 2))
        catch { case e: Throwable => failure.set(e) })
      ingester.start()
      var rounds = 0
      while (rounds == 0 || ingester.isAlive) {
        val got = svc.retrieveAll(keys, nThreads = 4)
        assert(got.keys.zip(got.labels).toMap == metas.map(m => m.key -> m.label).toMap)
        rounds += 1
      }
      ingester.join()
      assert(failure.get() == null, s"ingestion failed: ${failure.get()}")
      assert(r.files.size == 400 && r.numSamples == 800)
      r.close()
    }
  }
}
